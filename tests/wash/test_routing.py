"""Tests for wash-flow access planning."""

import pytest

from repro.benchmarks.registry import get_benchmark
from repro.core.problem import SynthesisProblem
from repro.place.greedy import construct_placement
from repro.place.grid import Cell
from repro.route.router import route_tasks
from repro.schedule.list_scheduler import schedule_assay
from repro.wash.routing import plan_wash_access


@pytest.fixture(scope="module")
def routing():
    case = get_benchmark("IVD")
    problem = SynthesisProblem(assay=case.assay, allocation=case.allocation)
    schedule = schedule_assay(case.assay, case.allocation)
    placement = construct_placement(problem.resolved_grid(), problem.footprints())
    return route_tasks(placement, schedule.transport_tasks())


class TestWashAccess:
    def test_full_coverage_on_legal_layouts(self, routing):
        report = plan_wash_access(routing)
        assert report.full_coverage
        assert len(report.accesses) == len(routing.used_cells())

    def test_paths_connect_inlet_to_outlet_through_cell(self, routing):
        report = plan_wash_access(routing)
        for access in report.accesses:
            assert access.path[0] == report.inlet
            assert access.path[-1] == report.outlet
            assert access.cell in access.path
            for a, b in zip(access.path, access.path[1:]):
                assert a.manhattan(b) == 1

    def test_paths_avoid_components(self, routing):
        report = plan_wash_access(routing)
        obstacles = routing.placement.occupied_cells()
        for access in report.accesses:
            assert not (set(access.path) & obstacles)

    def test_boundary_ports(self, routing):
        report = plan_wash_access(routing)
        grid = routing.placement.grid
        for port in (report.inlet, report.outlet):
            assert (
                port.x in (0, grid.width - 1) or port.y in (0, grid.height - 1)
            )

    def test_explicit_ports_respected(self, routing):
        grid = routing.placement.grid
        inlet = Cell(0, 0)
        outlet = Cell(grid.width - 1, grid.height - 1)
        # Only use them if they are free on this layout.
        obstacles = routing.placement.occupied_cells()
        if inlet in obstacles or outlet in obstacles:
            pytest.skip("corners occupied on this layout")
        report = plan_wash_access(routing, inlet=inlet, outlet=outlet)
        assert report.inlet == inlet
        assert report.outlet == outlet

    def test_extra_network_measured(self, routing):
        report = plan_wash_access(routing)
        extra = report.extra_network_cells(routing)
        assert extra >= 0
        assert report.extra_network_mm(routing) == extra * routing.placement.grid.pitch_mm
