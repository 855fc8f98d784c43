"""Tests for the congestion analysis."""

import pytest

from repro.analysis.congestion import analyse_congestion
from repro.benchmarks.registry import get_benchmark
from repro.core.problem import SynthesisProblem
from repro.place.greedy import construct_placement
from repro.route.router import route_tasks
from repro.schedule.list_scheduler import schedule_assay


@pytest.fixture(scope="module")
def routing():
    case = get_benchmark("IVD")
    problem = SynthesisProblem(assay=case.assay, allocation=case.allocation)
    schedule = schedule_assay(case.assay, case.allocation)
    placement = construct_placement(problem.resolved_grid(), problem.footprints())
    return route_tasks(placement, schedule.transport_tasks())


class TestCongestion:
    def test_one_entry_per_used_cell(self, routing):
        report = analyse_congestion(routing)
        assert {entry.cell for entry in report.cells} == routing.used_cells()

    def test_sorted_hottest_first(self, routing):
        report = analyse_congestion(routing)
        counts = [entry.task_count for entry in report.cells]
        assert counts == sorted(counts, reverse=True)
        assert report.peak_task_count == counts[0]

    def test_totals_consistent(self, routing):
        report = analyse_congestion(routing)
        expected = sum(
            usage.slot.duration
            for usages in routing.usage_history().values()
            for usage in usages
        )
        assert report.total_occupied_seconds == pytest.approx(expected)

    def test_sharing_factor_at_least_one(self, routing):
        report = analyse_congestion(routing)
        assert report.sharing_factor >= 1.0

    def test_hottest_subset(self, routing):
        report = analyse_congestion(routing)
        assert len(report.hottest(3)) == min(3, len(report.cells))

    def test_utilisation_lookup(self, routing):
        report = analyse_congestion(routing)
        known = report.cells[0].cell
        assert report.utilisation_of(known) is report.cells[0]
        from repro.place.grid import Cell

        assert report.utilisation_of(Cell(-5, -5)) is None

    def test_distinct_fluids_bounded_by_tasks(self, routing):
        report = analyse_congestion(routing)
        for entry in report.cells:
            assert 1 <= entry.distinct_fluids <= entry.task_count
