"""Unit tests for the reference routing grid (weights and slots).

:class:`~tests.oracles.routing_grid.RoutingGrid` is the oracle the
parity suites drive both routing loops over, so its Algorithm 2
bookkeeping is pinned here on its own.
"""

import pytest

from repro.errors import RoutingError
from repro.place.grid import Cell, ChipGrid
from repro.place.placement import PlacedComponent, Placement
from repro.route.flat import DEFAULT_INITIAL_WEIGHT
from repro.route.timeslots import TimeSlot
from tests.oracles.routing_grid import RoutingGrid


def placement() -> Placement:
    return Placement(
        ChipGrid(8, 8),
        {
            "Mixer1": PlacedComponent("Mixer1", 0, 0, 2, 2),
            "Mixer2": PlacedComponent("Mixer2", 5, 5, 2, 2),
        },
    )


class TestRoutingGrid:
    def test_component_cells_are_obstacles(self):
        grid = RoutingGrid(placement())
        assert not grid.is_routable(Cell(0, 0))
        assert not grid.is_routable(Cell(6, 6))
        assert grid.is_routable(Cell(3, 3))

    def test_off_grid_not_routable(self):
        grid = RoutingGrid(placement())
        assert not grid.is_routable(Cell(-1, 0))
        assert not grid.is_routable(Cell(8, 0))

    def test_initial_weight(self):
        grid = RoutingGrid(placement())
        assert grid.weight(Cell(3, 3)) == DEFAULT_INITIAL_WEIGHT
        custom = RoutingGrid(placement(), initial_weight=3.0)
        assert custom.weight(Cell(3, 3)) == 3.0

    def test_negative_weight_rejected(self):
        with pytest.raises(RoutingError):
            RoutingGrid(placement(), initial_weight=-1.0)

    def test_commit_updates_weight_and_slots(self):
        grid = RoutingGrid(placement())
        cells = (Cell(2, 0), Cell(3, 0), Cell(4, 0))
        transit = TimeSlot(0.0, 2.0)
        cache = TimeSlot(0.0, 5.0)
        grid.commit_path(cells, "tk0", [transit, transit, cache], wash_time=1.5)
        for cell in cells:
            assert grid.weight(cell) == 1.5
            assert len(grid.slots(cell)) == 1
        assert grid.slots(Cell(4, 0)).slots() == [cache]
        assert grid.slots(Cell(2, 0)).slots() == [transit]

    def test_is_free_respects_slots(self):
        grid = RoutingGrid(placement())
        cell = Cell(3, 3)
        grid.commit_path((cell,), "tk0", [TimeSlot(0, 5)], 1.0)
        assert not grid.is_free(cell, TimeSlot(4, 6))
        assert grid.is_free(cell, TimeSlot(5, 6))

    def test_commit_conflicting_slot_raises(self):
        grid = RoutingGrid(placement())
        cell = Cell(3, 3)
        grid.commit_path((cell,), "tk0", [TimeSlot(0, 5)], 1.0)
        with pytest.raises(RoutingError, match="not free"):
            grid.commit_path((cell,), "tk1", [TimeSlot(3, 6)], 1.0)

    def test_commit_slot_count_mismatch_raises(self):
        grid = RoutingGrid(placement())
        with pytest.raises(RoutingError, match="slots for"):
            grid.commit_path(
                (Cell(3, 3), Cell(3, 4)), "tk0", [TimeSlot(0, 1)], 1.0
            )

    def test_sequential_same_cell_reuse_allowed(self):
        grid = RoutingGrid(placement())
        cell = Cell(3, 3)
        grid.commit_path((cell,), "tk0", [TimeSlot(0, 5)], 1.0)
        grid.commit_path((cell,), "tk1", [TimeSlot(5, 8)], 2.0)
        assert len(grid.slots(cell)) == 2
        assert grid.weight(cell) == 2.0  # last residue wins
