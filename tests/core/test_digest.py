"""Tests for the extracted content-addressing module.

``problem_digest`` moved from :mod:`repro.obs.ledger` into
:mod:`repro.core.digest` (the serve subsystem needs it without pulling
in the ledger).  The digest is a *stable identifier* — ledger history
and the service's result cache both key on it — so these tests pin the
algorithm: the move must not change a single byte of any digest, and
future edits that would must be made deliberately.
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
        assert set(document) == {"assay", "allocation", "parameters", "grid"}
        assert "jobs" not in document["parameters"]
        # The document must stay JSON-serialisable (the digest hashes
        # its canonical text).
        json.dumps(document)


class TestLedgerReExport:
    """The ledger keeps re-exporting the digest API (deprecated path)."""

    def test_same_function_objects(self):
        from repro.obs import ledger

        assert ledger.problem_digest is problem_digest
        assert (
            ledger._DIGEST_EXCLUDED_PARAMETERS is DIGEST_EXCLUDED_PARAMETERS
        )

    def test_digest_equality_across_the_move(self):
        # The load-bearing pin: records written by older code (through
        # the ledger's digest) and keys computed by the serve cache
        # (through core.digest) must agree forever.
        from repro.obs.ledger import problem_digest as ledger_digest

        problem = _problem(seed=7)
        assert ledger_digest(problem) == problem_digest(problem)


class TestIdentityPins:
    """Literal SHA-256 pins of problem and solution identity.

    A changed value means every cache key, ledger digest, or stored
    layout of that problem changed with it; re-pin only on purpose.
    """

    @pytest.mark.parametrize(
        "name, expected",
        [
            ("PCR", "a4d609fede25d202dc0b4401f448086c383fc7bf0ec1293d4a3c09c2ed4d4c23"),
            ("CPA", "2f83ccbd61fff57342bb713e9909ac2cee77ebec426dc144e987b72dc6c83557"),
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
