"""Unit and integration tests for the conflict-aware router."""

import pytest

from repro.assay.fluids import Fluid
from repro.benchmarks.registry import get_benchmark
from repro.errors import RoutingError
from repro.place.grid import ChipGrid
from repro.place.placement import PlacedComponent, Placement
from repro.route.router import (
    _POSTPONE_LIMIT,
    _POSTPONE_STEP,
    plan_path_slots,
    route_tasks,
    route_tasks_baseline,
)
from tests.oracles.routing_grid import RoutingGrid
from repro.schedule.list_scheduler import schedule_assay
from repro.schedule.tasks import TransportTask
from repro.units import EPSILON


def two_component_placement() -> Placement:
    return Placement(
        ChipGrid(10, 10),
        {
            "Mixer1": PlacedComponent("Mixer1", 0, 0, 3, 2),
            "Mixer2": PlacedComponent("Mixer2", 6, 6, 3, 2),
        },
    )


def task(
    task_id="tk0",
    depart=0.0,
    arrive=2.0,
    consume=2.0,
    wash=1.0,
    src="Mixer1",
    dst="Mixer2",
    fluid_name="f",
) -> TransportTask:
    return TransportTask(
        task_id=task_id,
        producer="p",
        consumer="c",
        fluid=Fluid.with_wash_time(fluid_name, wash),
        src_component=src,
        dst_component=dst,
        depart=depart,
        arrive=arrive,
        consume=consume,
    )


class TestRouteTasks:
    def test_single_task_routes_port_to_port(self):
        placement = two_component_placement()
        result = route_tasks(placement, [task()])
        assert len(result.paths) == 1
        path = result.paths[0]
        assert path.postponement == 0.0
        assert path.cells[0] in placement.ports("Mixer1")
        assert path.cells[-1] in placement.ports("Mixer2")

    def test_total_length_counts_distinct_cells(self):
        placement = two_component_placement()
        # Two identical tasks at disjoint times share their path fully.
        tasks = [
            task("tk0", depart=0.0, arrive=2.0, consume=2.0),
            task("tk1", depart=20.0, arrive=22.0, consume=22.0),
        ]
        result = route_tasks(placement, tasks)
        total = result.total_length_cells
        assert total == result.paths[0].length_cells
        assert result.total_length_mm() == total * placement.grid.pitch_mm

    def test_parallel_tasks_do_not_share_cells_in_time(self):
        placement = two_component_placement()
        tasks = [
            task("tk0", depart=0.0, arrive=2.0, consume=2.0),
            task("tk1", depart=0.5, arrive=2.5, consume=2.5),
        ]
        result = route_tasks(placement, tasks)
        assert result.total_postponement == 0.0
        a, b = result.paths
        shared = set(a.cells) & set(b.cells)
        # Any shared cell must carry disjoint slots (enforced by the
        # grid's add(); verify no exception and distinct timings).
        history = result.usage_history()
        for cell in shared:
            slots = [u.slot for u in history[cell]]
            for i, first in enumerate(slots):
                for second in slots[i + 1:]:
                    assert not first.overlaps(second)

    def test_cache_slot_on_exactly_one_cell(self):
        placement = two_component_placement()
        long_cache = task("tk0", depart=0.0, arrive=2.0, consume=30.0)
        result = route_tasks(placement, [long_cache])
        path = result.paths[0]
        history = result.usage_history()
        cache_cells = [
            cell
            for cell in path.cells
            if any(
                u.slot.start <= EPSILON and u.slot.end >= 30.0 - EPSILON
                for u in history[cell]
            )
        ]
        assert len(cache_cells) == 1

    def test_self_loop_occupies_one_nearby_cell(self):
        placement = two_component_placement()
        loop = task("tk0", src="Mixer1", dst="Mixer1", consume=10.0)
        result = route_tasks(placement, [loop])
        path = result.paths[0]
        assert len(path.cells) == 1

    def test_deterministic(self):
        case = get_benchmark("Synthetic1")
        schedule = schedule_assay(case.assay, case.allocation)
        from repro.core.problem import SynthesisProblem

        problem = SynthesisProblem(assay=case.assay, allocation=case.allocation)
        from repro.place.greedy import construct_placement

        placement = construct_placement(
            problem.resolved_grid(), problem.footprints()
        )
        first = route_tasks(placement, schedule.transport_tasks())
        second = route_tasks(placement, schedule.transport_tasks())
        assert [p.cells for p in first.paths] == [p.cells for p in second.paths]

    def test_path_for(self):
        placement = two_component_placement()
        result = route_tasks(placement, [task("tkX")])
        assert result.path_for("tkX").task.task_id == "tkX"
        from repro.errors import RoutingError

        with pytest.raises(RoutingError):
            result.path_for("missing")


class TestPlanPathSlots:
    def test_cache_prefers_non_port_cells(self):
        placement = two_component_placement()
        grid = RoutingGrid(placement, initial_weight=0.0)
        long_cache = task("tk0", depart=0.0, arrive=2.0, consume=40.0)
        from tests.oracles.astar import find_path
        from repro.route.timeslots import TimeSlot

        cells = find_path(
            grid,
            placement.ports("Mixer1"),
            placement.ports("Mixer2"),
            TimeSlot(0.0, 2.0),
        )
        assert cells is not None
        ports = {
            cell for cid in placement.components() for cell in placement.ports(cid)
        }
        slots = plan_path_slots(grid, cells, long_cache, 0.0, avoid_for_cache=ports)
        assert slots is not None
        cache_index = max(
            range(len(cells)), key=lambda i: slots[i].duration
        )
        assert cells[cache_index] not in ports

    def test_all_benchmark_routings_conflict_free(self):
        """Slot sets per cell are pairwise disjoint on a real workload."""
        case = get_benchmark("IVD")
        schedule = schedule_assay(case.assay, case.allocation)
        from repro.core.problem import SynthesisProblem
        from repro.place.greedy import construct_placement

        problem = SynthesisProblem(assay=case.assay, allocation=case.allocation)
        placement = construct_placement(
            problem.resolved_grid(), problem.footprints()
        )
        result = route_tasks(placement, schedule.transport_tasks())
        for usages in result.usage_history().values():
            slots = [u.slot for u in usages]
            for i, first in enumerate(slots):
                for second in slots[i + 1:]:
                    assert not first.overlaps(second)


class TestRoutingRecord:
    """The paths are the routing record: occupations and usage history."""

    def test_occupations_follow_the_slot_plan(self):
        placement = two_component_placement()
        cached = task("tk0", depart=0.0, arrive=2.0, consume=30.0)
        path = route_tasks(placement, [cached]).paths[0]
        assert len(path.occupations) == len(path.cells)
        # Exactly one cell holds the full transport+cache slot; the
        # others hold the transit or tail occupation inside it.
        assert path.occupations.count(path.slot) == 1
        for slot in path.occupations:
            assert path.slot.start <= slot.start <= slot.end <= path.slot.end

    def test_self_loop_occupies_its_cache_slot(self):
        placement = two_component_placement()
        loop = task("tk0", src="Mixer1", dst="Mixer1", consume=10.0)
        path = route_tasks(placement, [loop]).paths[0]
        assert path.occupations == (path.slot,)

    def test_usage_history_in_commit_order(self):
        placement = two_component_placement()
        tasks = [
            task("tk0", depart=0.0, arrive=2.0, consume=2.0, fluid_name="a"),
            task("tk1", depart=20.0, arrive=22.0, consume=22.0,
                 fluid_name="b"),
        ]
        result = route_tasks(placement, tasks)
        first, second = result.paths
        history = result.usage_history()
        # Cells in first-touch order, each list in commit order.
        expected_cells = list(
            dict.fromkeys(first.cells + second.cells)
        )
        assert list(history) == expected_cells
        assert result.used_cells() == set(expected_cells)
        for path in (first, second):
            for cell, slot in zip(path.cells, path.occupations):
                assert (
                    path.task.task_id, path.task.fluid, slot
                ) in history[cell]
        shared = set(first.cells) & set(second.cells)
        assert shared  # disjoint windows share the cheap channel
        for cell in shared:
            assert [u.task_id for u in history[cell]] == ["tk0", "tk1"]


class TestPostponementCounter:
    @pytest.mark.parametrize("flow", ["ours", "baseline"])
    def test_counter_matches_postponed_paths(self, flow):
        """`route.postponements` must count exactly the tasks whose
        committed slot slid, and each slide must appear in the paths."""
        from repro.core.baseline import synthesize_problem_baseline
        from repro.core.problem import SynthesisParameters, SynthesisProblem
        from repro.core.synthesizer import synthesize_problem
        from repro.obs.instrument import Instrumentation

        params = SynthesisParameters(
            initial_temperature=50.0,
            min_temperature=1.0,
            cooling_rate=0.7,
            iterations_per_temperature=25,
            seed=1,
        )
        case = get_benchmark("Scale50")
        problem = SynthesisProblem(
            assay=case.assay, allocation=case.allocation, parameters=params
        )
        run = synthesize_problem if flow == "ours" else synthesize_problem_baseline
        instrumentation = Instrumentation()
        result = run(problem, instrumentation=instrumentation)
        postponed = [p for p in result.routing.paths if p.postponement > 0]
        assert postponed  # Scale50 is congested enough to postpone
        assert (
            instrumentation.counters.get("route.postponements", 0)
            == len(postponed)
        )

    @pytest.mark.parametrize("flow", ["ours", "baseline"])
    def test_self_loop_counter_matches_self_loop_paths(self, flow):
        """`route.self_loops` counts exactly the committed self-loop
        paths, in both flows."""
        from repro.core.baseline import synthesize_problem_baseline
        from repro.core.problem import SynthesisParameters, SynthesisProblem
        from repro.core.synthesizer import synthesize_problem
        from repro.obs.instrument import Instrumentation

        case = get_benchmark("CPA")
        problem = SynthesisProblem(
            assay=case.assay,
            allocation=case.allocation,
            parameters=SynthesisParameters(seed=1),
        )
        run = synthesize_problem if flow == "ours" else synthesize_problem_baseline
        instrumentation = Instrumentation()
        result = run(problem, instrumentation=instrumentation)
        loops = [
            p for p in result.routing.paths
            if p.task.src_component == p.task.dst_component
        ]
        assert loops  # CPA evicts fluids beside their own component
        assert instrumentation.counters.get("route.self_loops", 0) == len(loops)


class TestPostponementBudget:
    @pytest.mark.parametrize(
        "router", [route_tasks, route_tasks_baseline], ids=["ours", "baseline"]
    )
    def test_budget_exhaustion_raises_naming_the_task(self, router):
        """Both routers give up after `_POSTPONE_LIMIT` slides.

        A single corridor joins the two mixers; the first task caches
        its plug in the corridor for longer than the whole budget, so
        the second can only pass after more than `_POSTPONE_LIMIT`
        slides.
        """
        corridor = Placement(
            ChipGrid(7, 1),
            {
                "Mixer1": PlacedComponent("Mixer1", 0, 0, 2, 1),
                "Mixer2": PlacedComponent("Mixer2", 5, 0, 2, 1),
            },
        )
        blocking = task(
            "tk0", depart=0.0, arrive=2.0,
            consume=(_POSTPONE_LIMIT + 100) * _POSTPONE_STEP,
        )
        starved = task("tk1", depart=1.0, arrive=3.0, consume=3.0)
        with pytest.raises(RoutingError, match="tk1") as caught:
            router(corridor, [blocking, starved])
        assert caught.value.task_id == "tk1"

