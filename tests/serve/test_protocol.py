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
        assert submission.digest == problem_digest(submission.problem())

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
        assert document["schema"] == 1
        assert document["digest"] == "d" * 64
        assert document["benchmark"] == "PCR"
        assert document["seed"] == 1
        assert "metrics" in document and "summary" in document

    def test_solution_digest_excludes_cpu_time(self, result):
        # cpu_time_s is a measurement, not part of the solution — two
        # runs of the same problem must agree on solution_digest.
        document = result_document(result, "d" * 64)
        assert "cpu_time_s" in document["metrics"]
        hashed = {
            k: v
            for k, v in document["metrics"].items()
            if k != "cpu_time_s"
        }
        from repro.core.digest import canonical_json, text_digest

        assert document["solution_digest"] == text_digest(
            canonical_json(hashed)
        )


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
