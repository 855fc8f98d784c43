"""Submission validation and content addressing."""

from __future__ import annotations

import json

import pytest

from repro.core.digest import problem_digest
from repro.errors import ReproError
from repro.serve.protocol import (
    Submission,
    SubmissionError,
    parse_submission,
    result_document,
)


def _pcr(seed: int = 1, **extra) -> dict:
    return {"benchmark": "PCR", "parameters": {"seed": seed}, **extra}


class TestParseSubmission:
    def test_benchmark_submission(self):
        submission = parse_submission(_pcr())
        assert isinstance(submission, Submission)
        assert submission.benchmark == "PCR"
        assert submission.algorithm == "ours"
        assert submission.cache_key == submission.digest
        assert len(submission.digest) == 64

    def test_digest_matches_the_problem(self):
        submission = parse_submission(_pcr(seed=5))
        assert submission.digest == problem_digest(submission.problem)

    def test_equal_submissions_share_a_digest(self):
        assert (
            parse_submission(_pcr()).digest == parse_submission(_pcr()).digest
        )

    def test_seed_splits_the_digest(self):
        assert (
            parse_submission(_pcr(seed=1)).digest
            != parse_submission(_pcr(seed=2)).digest
        )

    def test_baseline_namespaces_the_cache_key(self):
        ours = parse_submission(_pcr())
        base = parse_submission(_pcr(algorithm="baseline"))
        # Same problem, same digest — but the flows produce different
        # results, so the cache keys must differ.
        assert base.digest == ours.digest
        assert base.cache_key == f"baseline-{base.digest}"
        assert base.cache_key != ours.cache_key

    def test_non_object_rejected(self):
        with pytest.raises(SubmissionError, match="JSON object"):
            parse_submission([1, 2])

    def test_unknown_field_rejected(self):
        with pytest.raises(SubmissionError, match="unknown submission"):
            parse_submission(_pcr(surprise=True))

    def test_benchmark_and_assay_are_exclusive(self):
        with pytest.raises(SubmissionError, match="exactly one"):
            parse_submission({"benchmark": "PCR", "assay": {}})
        with pytest.raises(SubmissionError, match="exactly one"):
            parse_submission({"parameters": {}})

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SubmissionError, match="unknown benchmark"):
            parse_submission({"benchmark": "NoSuchAssay"})

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SubmissionError, match="unknown algorithm"):
            parse_submission(_pcr(algorithm="magic"))

    def test_jobs_parameter_rejected(self):
        # Pool width is the server's resource decision.
        with pytest.raises(SubmissionError, match="jobs"):
            parse_submission(
                {"benchmark": "PCR", "parameters": {"jobs": 8}}
            )

    def test_unknown_parameter_rejected(self):
        with pytest.raises(SubmissionError, match="unknown parameter"):
            parse_submission(
                {"benchmark": "PCR", "parameters": {"tempurature": 1.0}}
            )

    def test_bad_parameter_value_raises_repro_error(self):
        with pytest.raises(ReproError):
            parse_submission(
                {"benchmark": "PCR", "parameters": {"check": "bogus"}}
            )

    def test_int_fields_refuse_booleans_float_fields_take_ints(self):
        with pytest.raises(SubmissionError, match="'seed' must be an integer"):
            parse_submission(
                {"benchmark": "PCR", "parameters": {"seed": True}}
            )
        submission = parse_submission(
            {"benchmark": "PCR", "parameters": {"transport_time": 3}}
        )
        assert submission.document["parameters"] == {"transport_time": 3}

    def test_job_id_validation(self):
        assert parse_submission(_pcr(job_id="run-1")).job_id == "run-1"
        with pytest.raises(SubmissionError, match="whitespace"):
            parse_submission(_pcr(job_id="has space"))
        with pytest.raises(SubmissionError, match="whitespace"):
            parse_submission(_pcr(job_id="a/b"))
        with pytest.raises(SubmissionError, match="characters"):
            parse_submission(_pcr(job_id="x" * 200))

    def test_job_id_takes_integers_and_refuses_other_types(self):
        assert parse_submission(_pcr(job_id=42)).job_id == "42"
        assert parse_submission(_pcr(job_id=-7)).job_id == "-7"
        limit = 10**120 - 1
        assert parse_submission(_pcr(job_id=limit)).job_id == str(limit)
        for huge in (10**120, 10**5000, -(10**5000)):
            with pytest.raises(SubmissionError, match="characters"):
                parse_submission(_pcr(job_id=huge))
        for other in (True, 1.5, [1], {"id": 1}):
            with pytest.raises(SubmissionError, match="string or an integer"):
                parse_submission(_pcr(job_id=other))


class TestResultDocument:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.benchmarks.registry import get_benchmark
        from repro.core.problem import SynthesisParameters, SynthesisProblem
        from repro.core.synthesizer import synthesize_problem

        case = get_benchmark("PCR")
        problem = SynthesisProblem(
            assay=case.assay,
            allocation=case.allocation,
            parameters=SynthesisParameters(seed=1),
        )
        return synthesize_problem(problem)

    def test_document_is_json_serialisable(self, result):
        document = result_document(result, "d" * 64)
        json.dumps(document)
        assert document["schema"] == 2
        assert document["digest"] == "d" * 64
        assert document["benchmark"] == "PCR"
        assert document["seed"] == 1
        assert "metrics" in document and "summary" in document

    def test_solution_digest_excludes_cpu_time(self, result):
        # solution_digest hashes the canonical repro-solution document
        # minus cpu_time_s, a measurement rather than part of the
        # solution: two runs of the same problem must agree on it.
        import copy
        from dataclasses import replace

        from repro.core.digest import canonical_json, text_digest
        from repro.core.io import result_to_dict

        document = result_document(result, "d" * 64)
        assert "cpu_time_s" in document["metrics"]
        solution = result_to_dict(result)
        del solution["metrics"]["cpu_time_s"]
        assert document["solution_digest"] == text_digest(
            canonical_json(solution)
        )
        slower = copy.deepcopy(result)
        object.__setattr__(
            slower,
            "metrics",
            replace(slower.metrics, cpu_time=slower.metrics.cpu_time + 9.0),
        )
        again = result_document(slower, "d" * 64)
        assert again["metrics"] != document["metrics"]
        assert again["solution_digest"] == document["solution_digest"]

    def test_solution_digest_tells_equal_metrics_apart(self, result):
        # Equal metrics do not make equal solutions: a different
        # placement or a different route is a different solution.
        import copy

        from repro.place.grid import Cell
        from repro.place.placement import PlacedComponent

        original = result_document(result, "d" * 64)

        moved = copy.deepcopy(result)
        block = moved.placement.blocks()[0]
        moved.placement._blocks[block.cid] = PlacedComponent(
            block.cid, block.x + 1, block.y, block.width, block.height
        )
        rerouted = copy.deepcopy(result)
        path = rerouted.routing.paths[0]
        shifted = tuple(Cell(c.x + 1, c.y) for c in path.cells)
        object.__setattr__(path, "cells", shifted)

        for variant in (moved, rerouted):
            document = result_document(variant, "d" * 64)
            assert document["metrics"] == original["metrics"]
            assert document["solution_digest"] != original["solution_digest"]


class TestSubmitClientChoices:
    """Every value ``repro submit`` offers must be one the server takes."""

    @staticmethod
    def _choices(option: str) -> list[str]:
        from repro.serve.client import _submit_parser

        for action in _submit_parser()._actions:
            if option in action.option_strings:
                return list(action.choices)
        raise AssertionError(f"no {option} option")

    @pytest.mark.parametrize("option", ["--check", "--algorithm"])
    def test_every_choice_is_accepted(self, option):
        from repro.serve.client import _build_submission, _submit_parser

        choices = self._choices(option)
        assert choices
        for value in choices:
            args = _submit_parser().parse_args(["PCR", option, value])
            submission = parse_submission(_build_submission(args))
            assert len(submission.digest) == 64

    def test_check_choices_are_the_library_modes(self):
        from repro.check.report import CHECK_MODES

        assert self._choices("--check") == list(CHECK_MODES)
