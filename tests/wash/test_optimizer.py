"""Tests for channel wash planning."""

import pytest

from repro.benchmarks.registry import get_benchmark
from repro.core.metrics import channel_wash_time
from repro.core.problem import SynthesisProblem
from repro.place.greedy import construct_placement
from repro.route.router import route_tasks
from repro.schedule.list_scheduler import schedule_assay
from repro.wash.optimizer import plan_channel_washes


def routed(name="IVD"):
    case = get_benchmark(name)
    problem = SynthesisProblem(assay=case.assay, allocation=case.allocation)
    schedule = schedule_assay(case.assay, case.allocation)
    placement = construct_placement(problem.resolved_grid(), problem.footprints())
    return route_tasks(placement, schedule.transport_tasks())


class TestWashPlan:
    @pytest.mark.parametrize("name", ["PCR", "IVD", "Synthetic1"])
    def test_total_matches_fig9_metric(self, name):
        routing = routed(name)
        plan = plan_channel_washes(routing)
        assert plan.total_duration == pytest.approx(channel_wash_time(routing))

    def test_at_least_one_event_per_used_cell(self):
        routing = routed()
        plan = plan_channel_washes(routing)
        cells_with_events = {event.cell for event in plan.events}
        assert cells_with_events == routing.used_cells()

    def test_events_sorted_by_earliest_start(self):
        plan = plan_channel_washes(routed())
        starts = [event.earliest_start for event in plan.events]
        assert starts == sorted(starts)

    def test_wash_starts_after_occupation(self):
        routing = routed()
        plan = plan_channel_washes(routing)
        history = routing.usage_history()
        for event in plan.events:
            occupations = [u.slot.end for u in history[event.cell]]
            assert any(
                event.earliest_start == pytest.approx(end) for end in occupations
            )

    def test_events_for_cell_filter(self):
        routing = routed()
        plan = plan_channel_washes(routing)
        cell = plan.events[0].cell
        subset = plan.events_for(cell)
        assert subset
        assert all(event.cell == cell for event in subset)
