"""Regression: every benchmark solution is checker-clean, for both flows,
every placement engine, and every job count."""

import pytest

from repro.benchmarks.registry import TABLE1_ORDER, get_benchmark
from repro.check import check_result
from repro.core.baseline import synthesize_problem_baseline
from repro.core.problem import SynthesisParameters, SynthesisProblem
from repro.core.synthesizer import synthesize_problem
from repro.place.annealing import PLACEMENT_ENGINES

FAST = dict(
    initial_temperature=50.0,
    min_temperature=1.0,
    cooling_rate=0.7,
    iterations_per_temperature=25,
    seed=1,
)

ALL_BENCHMARKS = tuple(TABLE1_ORDER) + ("Fig2a",)


def _solve(name: str, flow: str, **overrides):
    case = get_benchmark(name)
    problem = SynthesisProblem(
        assay=case.assay,
        allocation=case.allocation,
        parameters=SynthesisParameters(**{**FAST, **overrides}),
    )
    synthesize = (
        synthesize_problem if flow == "ours" else synthesize_problem_baseline
    )
    return synthesize(problem)


@pytest.mark.parametrize("name", ALL_BENCHMARKS)
@pytest.mark.parametrize("flow", ["ours", "baseline"])
def test_benchmarks_are_checker_clean(name, flow):
    report = check_result(_solve(name, flow))
    assert report.ok, report.render()
    assert report.subject == name
    assert report.algorithm == flow
    assert len(report.rules_checked) == 28


@pytest.mark.parametrize("name", ["PCR", "IVD"])
def test_engines_and_jobs_agree_and_stay_clean(name):
    """Every placement engine and every ``jobs`` fan-out yield the same
    solution, and the checker confirms each one clean."""
    reports = []
    metrics = []
    for engine in PLACEMENT_ENGINES:
        for jobs in (1, 2):
            result = _solve(
                name, "ours", placement_engine=engine, restarts=2, jobs=jobs,
            )
            report = check_result(result)
            assert report.ok, (engine, jobs, report.render())
            reports.append(report)
            m = result.metrics
            metrics.append(
                (
                    m.execution_time,
                    m.resource_utilisation,
                    m.total_channel_length_mm,
                    m.total_cache_time,
                    m.total_channel_wash_time,
                    m.total_component_wash_time,
                    m.transport_count,
                    m.total_postponement,
                )
            )
    assert all(report == reports[0] for report in reports)
    assert all(m == metrics[0] for m in metrics)
