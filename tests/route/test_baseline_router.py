"""Tests for the construction-by-correction (baseline) router."""

from repro.assay.fluids import Fluid
from repro.benchmarks.registry import get_benchmark
from repro.core.problem import SynthesisProblem
from repro.place.greedy import construct_placement
from repro.place.grid import ChipGrid
from repro.place.placement import PlacedComponent, Placement
from repro.route.router import route_tasks_baseline
from repro.route.router import route_tasks
from repro.schedule.baseline_scheduler import schedule_assay_baseline
from repro.schedule.tasks import TransportTask


def placement() -> Placement:
    return Placement(
        ChipGrid(10, 10),
        {
            "Mixer1": PlacedComponent("Mixer1", 0, 0, 3, 2),
            "Mixer2": PlacedComponent("Mixer2", 6, 6, 3, 2),
        },
    )


def task(task_id, depart, wash=1.0):
    return TransportTask(
        task_id=task_id,
        producer="p",
        consumer="c",
        fluid=Fluid.with_wash_time("f", wash),
        src_component="Mixer1",
        dst_component="Mixer2",
        depart=depart,
        arrive=depart + 2.0,
        consume=depart + 2.0,
    )


class TestBaselineRouter:
    def test_single_task(self):
        result = route_tasks_baseline(placement(), [task("tk0", 0.0)])
        assert len(result.paths) == 1
        assert result.paths[0].postponement == 0.0

    def test_conflicting_tasks_resolved(self):
        tasks = [task("tk0", 0.0), task("tk1", 0.5), task("tk2", 1.0)]
        result = route_tasks_baseline(placement(), tasks)
        # All tasks realised, slot sets conflict-free.
        assert len(result.paths) == 3
        for usages in result.usage_history().values():
            slots = [u.slot for u in usages]
            for i, first in enumerate(slots):
                for second in slots[i + 1:]:
                    assert not first.overlaps(second)

    def test_sequential_tasks_share_shortest_path(self):
        tasks = [task("tk0", 0.0), task("tk1", 10.0)]
        result = route_tasks_baseline(placement(), tasks)
        assert result.paths[0].cells == result.paths[1].cells
        assert result.total_postponement == 0.0

    def test_benchmark_routing_completes(self):
        case = get_benchmark("IVD")
        schedule = schedule_assay_baseline(case.assay, case.allocation)
        problem = SynthesisProblem(assay=case.assay, allocation=case.allocation)
        layout = construct_placement(problem.resolved_grid(), problem.footprints())
        result = route_tasks_baseline(layout, schedule.transport_tasks())
        assert len(result.paths) == len(schedule.transport_tasks())

    def test_baseline_never_shorter_paths_than_conflict_aware_single_task(self):
        """On one task, both routers find a geometric shortest path of
        equal length (weights don't matter with a single task)."""
        single = [task("tk0", 0.0)]
        ours = route_tasks(placement(), single, initial_weight=10.0)
        base = route_tasks_baseline(placement(), single)
        assert ours.paths[0].length_cells == base.paths[0].length_cells

    def test_postponements_reported_per_edge(self):
        tasks = [task("tk0", 0.0), task("tk1", 0.0)]
        result = route_tasks_baseline(placement(), tasks)
        postponements = result.postponements()
        assert all(delay > 0 for delay in postponements.values())
