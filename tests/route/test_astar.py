"""Unit tests for the Eq. 5 A* path search (the reference oracle).

The production router's search, ``find_path_flat``, is pinned to this
oracle path for path in ``test_flat.py`` and ``test_flat_parity.py``.
"""

from repro.place.grid import Cell, ChipGrid
from repro.place.placement import PlacedComponent, Placement
from tests.oracles.astar import find_path
from tests.oracles.routing_grid import RoutingGrid
from repro.route.timeslots import TimeSlot


def open_grid(width=8, height=8) -> RoutingGrid:
    placement = Placement(
        ChipGrid(width, height),
        {"Block": PlacedComponent("Block", 0, 0, 1, 1)},
    )
    return RoutingGrid(placement, initial_weight=0.0)


SLOT = TimeSlot(0.0, 2.0)


class TestFindPath:
    def test_straight_line(self):
        grid = open_grid()
        path = find_path(grid, [Cell(1, 4)], [Cell(6, 4)], SLOT)
        assert path is not None
        assert path[0] == Cell(1, 4)
        assert path[-1] == Cell(6, 4)
        assert len(path) == 6  # Manhattan-optimal on an empty grid

    def test_source_equals_target(self):
        grid = open_grid()
        path = find_path(grid, [Cell(3, 3)], [Cell(3, 3)], SLOT)
        assert path == (Cell(3, 3),)

    def test_multiple_sources_picks_best(self):
        grid = open_grid()
        path = find_path(
            grid, [Cell(1, 1), Cell(5, 4)], [Cell(6, 4)], SLOT
        )
        assert path is not None
        assert path[0] == Cell(5, 4)  # nearer source wins

    def test_avoids_obstacles(self):
        placement = Placement(
            ChipGrid(7, 7),
            {"Wall": PlacedComponent("Wall", 3, 0, 1, 6)},
        )
        grid = RoutingGrid(placement, initial_weight=0.0)
        path = find_path(grid, [Cell(1, 1)], [Cell(5, 1)], SLOT)
        assert path is not None
        assert all(cell.x != 3 or cell.y == 6 for cell in path)
        assert len(path) > 5  # forced around the wall

    def test_no_path_returns_none(self):
        placement = Placement(
            ChipGrid(7, 7),
            {"Wall": PlacedComponent("Wall", 3, 0, 1, 7)},
        )
        grid = RoutingGrid(placement, initial_weight=0.0)
        assert find_path(grid, [Cell(1, 1)], [Cell(5, 1)], SLOT) is None

    def test_avoids_time_conflicts(self):
        grid = open_grid(5, 3)
        # Occupy the direct corridor at y=1 during the slot.
        grid.commit_path(
            (Cell(2, 1),), "busy", [TimeSlot(0.0, 10.0)], 1.0
        )
        path = find_path(grid, [Cell(1, 1)], [Cell(3, 1)], SLOT)
        assert path is not None
        assert Cell(2, 1) not in path

    def test_conflict_free_after_slot(self):
        grid = open_grid(5, 3)
        grid.commit_path(
            (Cell(2, 1),), "busy", [TimeSlot(0.0, 10.0)], 1.0
        )
        late = TimeSlot(10.0, 12.0)
        path = find_path(grid, [Cell(1, 1)], [Cell(3, 1)], late)
        assert path is not None
        assert Cell(2, 1) in path

    def test_weights_steer_reuse(self):
        grid = open_grid(7, 5)
        # Make the y=1 corridor cheap (already-washed channel).
        for x in range(1, 6):
            grid.commit_path(
                (Cell(x, 1),), f"old{x}",
                [TimeSlot(-5.0, -4.0)], 0.2,
            )
        # Heavier fresh-cell weight pushes the path onto the used row.
        path = find_path(grid, [Cell(1, 3)], [Cell(5, 3)], SLOT)
        assert path is not None
        # With zero initial weight there is no preference; re-run with a
        # grid whose fresh cells are expensive.
        placement = grid.placement
        weighted = RoutingGrid(placement, initial_weight=10.0)
        for x in range(1, 6):
            weighted.commit_path(
                (Cell(x, 1),), f"old{x}",
                [TimeSlot(-5.0, -4.0)], 0.2,
            )
        steered = find_path(weighted, [Cell(1, 3)], [Cell(5, 3)], SLOT)
        assert steered is not None
        assert sum(1 for cell in steered if cell.y == 1) >= 3

    def test_goal_slot_blocks_target_but_allows_transit(self):
        grid = open_grid(6, 3)
        target = Cell(4, 1)
        # The target cell is busy for a long time.
        grid.commit_path(
            (target,), "busy", [TimeSlot(0.0, 100.0)], 1.0
        )
        # With goal_slot == transit slot the search would end there; a
        # long goal slot must reject it.
        path = find_path(
            grid,
            [Cell(1, 1)],
            [target, Cell(4, 0)],
            SLOT,
            goal_slot=TimeSlot(0.0, 50.0),
        )
        assert path is not None
        assert path[-1] == Cell(4, 0)

    def test_deterministic(self):
        grid = open_grid()
        a = find_path(grid, [Cell(1, 1)], [Cell(6, 6)], SLOT)
        b = find_path(grid, [Cell(1, 1)], [Cell(6, 6)], SLOT)
        assert a == b
