"""Unit tests for the evaluation metrics."""

import pytest

from repro.benchmarks.registry import get_benchmark
from repro.core.metrics import (
    channel_wash_time,
    compute_metrics,
    improvement,
)
from repro.core.problem import SynthesisProblem
from repro.place.greedy import construct_placement
from repro.route.router import route_tasks
from repro.schedule.list_scheduler import schedule_assay


def synthesis_artifacts(name="IVD"):
    case = get_benchmark(name)
    problem = SynthesisProblem(assay=case.assay, allocation=case.allocation)
    schedule = schedule_assay(case.assay, case.allocation)
    placement = construct_placement(problem.resolved_grid(), problem.footprints())
    routing = route_tasks(placement, schedule.transport_tasks())
    return schedule, routing


def one_cell_routing(uses):
    """A routing whose paths all occupy cell (3, 3): one
    ``(task_id, fluid, start, end)`` tuple per path, in commit order."""
    from repro.place.grid import Cell, ChipGrid
    from repro.place.placement import PlacedComponent, Placement
    from repro.route.paths import RoutedPath
    from repro.route.router import RoutingResult
    from repro.route.timeslots import TimeSlot
    from repro.schedule.tasks import TransportTask

    placement = Placement(
        ChipGrid(6, 6), {"A": PlacedComponent("A", 0, 0, 1, 1)}
    )
    paths = []
    for task_id, fluid, start, end in uses:
        task = TransportTask(
            task_id=task_id,
            producer="a",
            consumer="b",
            fluid=fluid,
            src_component="A",
            dst_component="A",
            depart=start,
            arrive=start,
            consume=end,
        )
        slot = TimeSlot(start, end)
        paths.append(
            RoutedPath(
                task=task, cells=(Cell(3, 3),), slot=slot, occupations=(slot,)
            )
        )
    return RoutingResult(placement=placement, paths=paths)


class TestImprovement:
    def test_positive_when_ours_smaller(self):
        assert improvement(90.0, 100.0) == pytest.approx(10.0)

    def test_negative_when_ours_larger(self):
        assert improvement(110.0, 100.0) == pytest.approx(-10.0)

    def test_zero_baseline(self):
        assert improvement(5.0, 0.0) == 0.0

    def test_equal_is_zero(self):
        assert improvement(42.0, 42.0) == 0.0


class TestChannelWashTime:
    def test_every_used_cell_charges_final_wash(self):
        schedule, routing = synthesis_artifacts()
        total = channel_wash_time(routing)
        assert total > 0
        # Lower bound: one final wash per used cell at the minimum
        # per-fluid wash time observed.
        min_wash = min(
            usage.fluid.wash_time
            for usages in routing.usage_history().values()
            for usage in usages
        )
        assert total >= len(routing.used_cells()) * min_wash

    def test_same_fluid_reuse_washes_once(self):
        """Consecutive passes of one fluid over one cell charge a single
        wash (the sharing benefit)."""
        from repro.assay.fluids import Fluid

        fluid = Fluid.with_wash_time("same", 3.0)
        result = one_cell_routing([("tk0", fluid, 0, 1), ("tk1", fluid, 2, 3)])
        assert channel_wash_time(result) == pytest.approx(3.0)

    def test_different_fluids_wash_between(self):
        from repro.assay.fluids import Fluid

        result = one_cell_routing(
            [
                ("tk0", Fluid.with_wash_time("x", 3.0), 0, 1),
                ("tk1", Fluid.with_wash_time("y", 1.0), 2, 3),
            ]
        )
        # Wash x between uses (3.0) + final wash of y (1.0).
        assert channel_wash_time(result) == pytest.approx(4.0)


class TestComputeMetrics:
    def test_metrics_consistent_with_sources(self):
        schedule, routing = synthesis_artifacts()
        metrics = compute_metrics(schedule, routing, cpu_time=1.5)
        assert metrics.cpu_time == 1.5
        assert metrics.total_cache_time == pytest.approx(
            schedule.total_cache_time()
        )
        assert metrics.total_channel_length_mm == pytest.approx(
            routing.total_length_mm()
        )
        assert metrics.transport_count == schedule.transport_count()
        assert 0.0 < metrics.resource_utilisation <= 1.0

    def test_no_postponement_keeps_planned_makespan(self):
        schedule, routing = synthesis_artifacts()
        if routing.total_postponement == 0:
            metrics = compute_metrics(schedule, routing)
            assert metrics.execution_time == pytest.approx(schedule.makespan)

    def test_postponements_extend_execution_time(self):
        schedule, routing = synthesis_artifacts()
        # Inject a synthetic postponement on the first routed edge.
        from dataclasses import replace

        routing.paths[0] = replace(routing.paths[0], postponement=5.0)
        metrics = compute_metrics(schedule, routing)
        assert metrics.execution_time >= schedule.makespan

    def test_as_dict_keys(self):
        schedule, routing = synthesis_artifacts()
        record = compute_metrics(schedule, routing).as_dict()
        assert "execution_time_s" in record
        assert "resource_utilisation" in record
        assert "total_channel_length_mm" in record
        assert "total_cache_time_s" in record
        assert "total_channel_wash_time_s" in record
