"""Tests for the content-addressing module (:mod:`repro.core.digest`).

The digest is a *stable identifier* — ledger history and the service's
result cache both key on it — so these tests pin the algorithm: an edit
that changes a single byte of any digest must be made deliberately.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.benchmarks.registry import get_benchmark
from repro.core.baseline import synthesize_problem_baseline
from repro.core.digest import (
    DIGEST_EXCLUDED_PARAMETERS,
    canonical_json,
    problem_document,
    problem_digest,
    text_digest,
)
from repro.core.io import result_to_dict
from repro.core.problem import SynthesisParameters, SynthesisProblem
from repro.core.synthesizer import synthesize_problem


def _problem(seed: int = 1, **overrides) -> SynthesisProblem:
    case = get_benchmark("PCR")
    return SynthesisProblem(
        assay=case.assay,
        allocation=case.allocation,
        parameters=SynthesisParameters(seed=seed, **overrides),
    )


class TestCanonicalJson:
    def test_sorted_compact_form(self):
        assert canonical_json({"b": 1, "a": [2, 3]}) == '{"a":[2,3],"b":1}'

    def test_text_digest_is_sha256(self):
        assert (
            text_digest("x")
            == hashlib.sha256(b"x").hexdigest()
        )
        assert text_digest(b"x") == text_digest("x")


class TestProblemDigest:
    def test_digest_is_canonical_sha256_of_the_document(self):
        problem = _problem()
        expected = hashlib.sha256(
            canonical_json(problem_document(problem)).encode("utf-8")
        ).hexdigest()
        assert problem_digest(problem) == expected

    def test_deterministic_across_calls(self):
        assert problem_digest(_problem()) == problem_digest(_problem())

    def test_seed_changes_the_digest(self):
        assert problem_digest(_problem(seed=1)) != problem_digest(
            _problem(seed=2)
        )

    def test_jobs_is_excluded(self):
        # Parallelism is bit-identical by construction, so the pool
        # width must never split ledger/cache identities.
        assert "jobs" in DIGEST_EXCLUDED_PARAMETERS
        assert problem_digest(_problem(jobs=1)) == problem_digest(
            _problem(jobs=8)
        )

    def test_document_shape_is_pinned(self):
        document = problem_document(_problem())
        assert set(document) == {
            "assay", "allocation", "digest_version", "parameters", "grid"
        }
        assert document["digest_version"] == 2
        assert not DIGEST_EXCLUDED_PARAMETERS & set(document["parameters"])
        # The document must stay JSON-serialisable (the digest hashes
        # its canonical text).
        json.dumps(document)


class TestIdentityPins:
    """Literal SHA-256 pins of problem and solution identity.

    A changed value means every cache key, ledger digest, or stored
    layout of that problem changed with it; re-pin only on purpose.
    """

    @pytest.mark.parametrize(
        "name, expected",
        [
            ("PCR", "beaee2218d90238e77bc52e0569a5124e056d3ddbbf9f70053e84073e80bcc60"),
            ("CPA", "d93d070092e0e7afd4687ea1c2c0f5724f451afd343faf07c2debd0c60ffcaa2"),
        ],
    )
    def test_default_problem_digest(self, name, expected):
        case = get_benchmark(name)
        problem = SynthesisProblem(assay=case.assay, allocation=case.allocation)
        assert problem_digest(problem) == expected

    @pytest.mark.parametrize(
        "name, flow, expected",
        [
            ("PCR", "ours", "8ea3fe83175dafad8c8630e0705b58143ead1bda5ef41e4e2f81803bb8a8a4f1"),
            ("PCR", "baseline", "5e34d36daee7227d6b1007b13cc0769eab3c8e683560cfc9f13bc6f51440ff04"),
            ("CPA", "ours", "f6b1864efe89e3a9f77f2dfd0ca6a8a60dafc3129842605293a3bbafc7fc9eda"),
            ("CPA", "baseline", "787e3b1220740b933708a075fca14e264e3c77a1fd558a9f03aff2c2045058b6"),
            # Congested rows: BA's correction detours and postponements.
            ("Synthetic2", "ours", "79e68ca7c1d49fd5e65da3b53b3c0f549f0a4f73a1f6197cb8d7a1e623b39a5e"),
            ("Synthetic2", "baseline", "2fd185b13eca27ac5f8890b0648ec61da862aaff9c29b13f20d6a05b2632b992"),
            ("Scale100", "ours", "4d9fcfdbaecaca9458cd30aaf2a0c4d51b06fa43247fb391775eefcfd70fe20d"),
            ("Scale100", "baseline", "47f0f568d18d7ff2863f9f9e4e73b38d17b2d034efc93e3cb0e3130336908986"),
        ],
    )
    def test_solution_document_digest(self, name, flow, expected):
        # The whole repro-solution document (schedule, placement, routed
        # paths, metrics) minus cpu_time_s, which measures the run.
        synthesize = (
            synthesize_problem if flow == "ours"
            else synthesize_problem_baseline
        )
        document = result_to_dict(synthesize(_seeded(name)))
        del document["metrics"]["cpu_time_s"]
        assert text_digest(canonical_json(document)) == expected


def _seeded(name: str) -> SynthesisProblem:
    case = get_benchmark(name)
    return SynthesisProblem(
        assay=case.assay,
        allocation=case.allocation,
        parameters=SynthesisParameters(seed=1),
    )
