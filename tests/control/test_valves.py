"""Tests for control-layer valve derivation."""

import pytest

from repro.benchmarks.registry import get_benchmark
from repro.control.valves import Valve, ValveState, build_control_model
from repro.core.problem import SynthesisProblem
from repro.place.greedy import construct_placement
from repro.route.router import route_tasks
from repro.schedule.list_scheduler import schedule_assay


def routed(name="IVD"):
    case = get_benchmark(name)
    problem = SynthesisProblem(assay=case.assay, allocation=case.allocation)
    schedule = schedule_assay(case.assay, case.allocation)
    placement = construct_placement(problem.resolved_grid(), problem.footprints())
    return route_tasks(placement, schedule.transport_tasks())


class TestValve:
    def test_between_is_canonical(self):
        from repro.place.grid import Cell

        a, b = Cell(2, 3), Cell(2, 4)
        assert Valve.between(a, b) == Valve.between(b, a)

    def test_port_valve_identity(self):
        from repro.place.grid import Cell

        v1 = Valve.port(Cell(1, 1), "Mixer1")
        v2 = Valve.port(Cell(1, 1), "Mixer1")
        v3 = Valve.port(Cell(1, 1), "Mixer2")
        assert v1 == v2
        assert v1 != v3


class TestBuildControlModel:
    def test_model_has_port_valves_for_every_path(self):
        routing = routed()
        model = build_control_model(routing)
        assert model.valve_count > 0
        assert len(model.patterns) == len(routing.paths)

    def test_patterns_sorted_by_start(self):
        model = build_control_model(routed())
        starts = [pattern.start for pattern in model.patterns]
        assert starts == sorted(starts)

    def test_each_pattern_opens_its_ports(self):
        routing = routed()
        model = build_control_model(routing)
        for path, pattern in zip(
            sorted(routing.paths, key=lambda p: (p.slot.start, p.task.task_id)),
            model.patterns,
        ):
            opened = [
                valve
                for valve, state in pattern.states.items()
                if state is ValveState.OPEN
            ]
            assert opened, f"pattern {pattern.task_id} opens nothing"

    def test_dont_care_for_unrelated_valves(self):
        model = build_control_model(routed())
        pattern = model.patterns[0]
        unrelated = [
            valve for valve in model.valves if valve not in pattern.states
        ]
        for valve in unrelated:
            assert pattern.state_of(valve) is ValveState.DONT_CARE

    def test_multiplexed_pins_fewer_than_direct(self):
        model = build_control_model(routed("CPA"))
        if model.valve_count > 4:
            assert model.control_pins_multiplexed() < model.control_pins_direct()

    def test_empty_routing_yields_empty_model(self):
        from repro.place.grid import ChipGrid
        from repro.place.placement import PlacedComponent, Placement
        from repro.route.router import RoutingResult

        placement = Placement(
            ChipGrid(5, 5), {"A": PlacedComponent("A", 0, 0, 1, 1)}
        )
        result = RoutingResult(placement=placement)
        model = build_control_model(result)
        assert model.valve_count == 0
        assert model.control_pins_multiplexed() == 0
