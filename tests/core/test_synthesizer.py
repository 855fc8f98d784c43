"""Integration tests for the end-to-end synthesis flows."""

import pytest

from repro.benchmarks.registry import get_benchmark
from repro.core.baseline import synthesize_baseline, synthesize_problem_baseline
from repro.core.problem import SynthesisProblem
from repro.core.synthesizer import synthesize, synthesize_problem
from repro.schedule.validate import validate_schedule


class TestProposedFlow:
    def test_pcr_end_to_end(self, fast_params, pcr_case):
        result = synthesize(pcr_case.assay, pcr_case.allocation, fast_params)
        assert result.algorithm == "ours"
        validate_schedule(result.schedule)
        assert result.placement.is_legal()
        assert len(result.routing.paths) == result.schedule.transport_count()
        assert result.metrics.execution_time > 0
        assert result.metrics.cpu_time > 0

    def test_seed_override(self, fast_params, pcr_case):
        a = synthesize(pcr_case.assay, pcr_case.allocation, fast_params, seed=5)
        b = synthesize(pcr_case.assay, pcr_case.allocation, fast_params, seed=5)
        for cid in a.placement.components():
            assert a.placement.block(cid) == b.placement.block(cid)

    def test_summary_contains_key_figures(self, fast_params, pcr_case):
        result = synthesize(pcr_case.assay, pcr_case.allocation, fast_params)
        summary = result.summary()
        assert "execution time" in summary
        assert "utilisation" in summary
        assert "channel length" in summary
        assert pcr_case.name in summary

    def test_problem_interface(self, fast_params, pcr_case):
        problem = SynthesisProblem(
            assay=pcr_case.assay,
            allocation=pcr_case.allocation,
            parameters=fast_params,
        )
        result = synthesize_problem(problem)
        assert result.problem is problem


class TestBaselineFlow:
    def test_ivd_end_to_end(self, fast_params):
        case = get_benchmark("IVD")
        result = synthesize_baseline(case.assay, case.allocation, fast_params)
        assert result.algorithm == "baseline"
        validate_schedule(result.schedule)
        assert result.placement.is_legal()

    def test_baseline_deterministic(self, fast_params):
        case = get_benchmark("PCR")
        a = synthesize_baseline(case.assay, case.allocation, fast_params)
        b = synthesize_baseline(case.assay, case.allocation, fast_params)
        assert a.metrics.execution_time == b.metrics.execution_time
        assert a.metrics.total_channel_length_mm == b.metrics.total_channel_length_mm


class TestHeadlineComparison:
    """The paper's Table I claims, end to end, on small benchmarks."""

    @pytest.mark.parametrize("name", ["PCR", "IVD", "Synthetic1"])
    def test_ours_not_slower_than_baseline(self, fast_params, name):
        case = get_benchmark(name)
        problem = SynthesisProblem(
            assay=case.assay, allocation=case.allocation, parameters=fast_params
        )
        ours = synthesize_problem(problem)
        baseline = synthesize_problem_baseline(problem)
        assert (
            ours.metrics.execution_time
            <= baseline.metrics.execution_time + 1e-9
        )

    @pytest.mark.parametrize("name", ["PCR", "IVD"])
    def test_ours_utilisation_not_worse(self, fast_params, name):
        case = get_benchmark(name)
        problem = SynthesisProblem(
            assay=case.assay, allocation=case.allocation, parameters=fast_params
        )
        ours = synthesize_problem(problem)
        baseline = synthesize_problem_baseline(problem)
        assert (
            ours.metrics.resource_utilisation
            >= baseline.metrics.resource_utilisation - 1e-9
        )
