"""Unit and property tests for the flat array-backed routing engine.

Two layers:

* :class:`FlatOccupancy` must agree with one oracle
  :class:`~tests.oracles.routing_grid.TimeSlotSet` per cell on every
  ``conflicts_with`` / ``add`` outcome — pinned by a hypothesis
  property over random interval sequences, including zero-duration and
  epsilon-adjacent slots (the joints where the half-open + EPSILON
  semantics live).
* :func:`find_path_flat` must return the identical path as the
  oracle :func:`tests.oracles.astar.find_path` on hand-built grids —
  including tie-break-sensitive and occupation-constrained cases.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RoutingError, ValidationError
from repro.place.grid import Cell, ChipGrid
from repro.place.placement import PlacedComponent, Placement
from repro.route.flat import FlatOccupancy, FlatRoutingState, find_path_flat
from repro.route.timeslots import TimeSlot
from repro.units import EPSILON
from tests.oracles.astar import find_path
from tests.oracles.routing_grid import RoutingGrid, TimeSlotSet

# ----------------------------------------------------------------------
# FlatOccupancy vs TimeSlotSet
# ----------------------------------------------------------------------

# Starts on a coarse lattice so collisions and exact adjacency are
# frequent, plus sub-EPSILON jitter so the joint slack is exercised.
_starts = st.one_of(
    st.integers(min_value=0, max_value=12).map(float),
    st.builds(
        lambda base, jitter: base + jitter * (EPSILON / 2.0),
        st.integers(min_value=0, max_value=12).map(float),
        st.integers(min_value=-2, max_value=2),
    ),
)
_durations = st.one_of(
    st.just(0.0),                      # degenerate probes conflict with nothing
    st.just(EPSILON / 2.0),            # still "zero" under the slack
    st.integers(min_value=1, max_value=6).map(float),
    st.floats(min_value=0.25, max_value=6.0, allow_nan=False),
)
_intervals = st.tuples(_starts, _durations).map(lambda t: (t[0], t[0] + t[1]))


@settings(max_examples=200, deadline=None)
@given(st.lists(_intervals, max_size=25), _intervals)
def test_flat_occupancy_matches_timeslotset(intervals, probe):
    """Same accepted prefix, same conflict verdicts, same stored state."""
    occupancy = FlatOccupancy(1)
    oracle = TimeSlotSet()
    for start, end in intervals:
        slot = TimeSlot(start, end)
        assert occupancy.conflicts(0, start, end) == oracle.conflicts_with(slot)
        try:
            oracle.add(slot)
        except ValidationError:
            with pytest.raises(ValidationError):
                occupancy.add(0, start, end)
        else:
            occupancy.add(0, start, end)
    ps, pe = probe
    assert occupancy.conflicts(0, ps, pe) == oracle.conflicts_with(
        TimeSlot(ps, pe)
    )
    assert occupancy.intervals(0) == [
        (slot.start, slot.end) for slot in oracle.slots()
    ]


class TestFlatOccupancy:
    def test_untouched_cell_is_fast_no(self):
        occupancy = FlatOccupancy(4)
        assert occupancy.starts[3] is None
        assert not occupancy.conflicts(3, 0.0, 100.0)
        assert occupancy.intervals(3) == []

    def test_cells_are_independent(self):
        occupancy = FlatOccupancy(2)
        occupancy.add(0, 0.0, 5.0)
        assert occupancy.conflicts(0, 2.0, 3.0)
        assert not occupancy.conflicts(1, 2.0, 3.0)

    def test_zero_duration_never_conflicts(self):
        occupancy = FlatOccupancy(1)
        occupancy.add(0, 0.0, 10.0)
        assert not occupancy.conflicts(0, 5.0, 5.0)
        occupancy.add(0, 5.0, 5.0)  # and is accepted into a full cell

    def test_overlapping_add_raises(self):
        occupancy = FlatOccupancy(1)
        occupancy.add(0, 0.0, 5.0)
        with pytest.raises(ValidationError):
            occupancy.add(0, 4.0, 6.0)


# ----------------------------------------------------------------------
# find_path_flat vs find_path
# ----------------------------------------------------------------------

SLOT = TimeSlot(0.0, 2.0)


def make_pair(width=8, height=8, blocks=None, initial_weight=0.0):
    """A (RoutingGrid, FlatRoutingState) pair over the same placement."""
    blocks = blocks or {"Block": PlacedComponent("Block", 0, 0, 1, 1)}
    placement = Placement(ChipGrid(width, height), blocks)
    return (
        RoutingGrid(placement, initial_weight=initial_weight),
        FlatRoutingState(placement, initial_weight=initial_weight),
    )


def assert_same_path(reference, flat, sources, targets, slot, goal_slot=None):
    expected = find_path(reference, sources, targets, slot, goal_slot)
    actual = find_path_flat(flat, sources, targets, slot, goal_slot)
    assert actual == expected
    return actual


class TestFindPathFlatParity:
    def test_straight_line(self):
        reference, flat = make_pair()
        path = assert_same_path(
            reference, flat, [Cell(1, 4)], [Cell(6, 4)], SLOT
        )
        assert path is not None and len(path) == 6

    def test_source_equals_target(self):
        reference, flat = make_pair()
        path = assert_same_path(
            reference, flat, [Cell(3, 3)], [Cell(3, 3)], SLOT
        )
        assert path == (Cell(3, 3),)

    def test_multiple_sources_and_targets(self):
        reference, flat = make_pair()
        assert_same_path(
            reference, flat,
            [Cell(1, 1), Cell(5, 4)],
            [Cell(6, 4), Cell(6, 6)],
            SLOT,
        )

    def test_around_wall(self):
        reference, flat = make_pair(
            7, 7, {"Wall": PlacedComponent("Wall", 3, 0, 1, 6)}
        )
        path = assert_same_path(
            reference, flat, [Cell(1, 1)], [Cell(5, 1)], SLOT
        )
        assert path is not None and len(path) > 5

    def test_no_path_returns_none(self):
        reference, flat = make_pair(
            7, 7, {"Wall": PlacedComponent("Wall", 3, 0, 1, 7)}
        )
        path = assert_same_path(
            reference, flat, [Cell(1, 1)], [Cell(5, 1)], SLOT
        )
        assert path is None

    def test_weights_steer_identically(self):
        reference, flat = make_pair(initial_weight=10.0)
        # Make one corridor cheaper on both sides.
        for x in range(1, 7):
            cheap = Cell(x, 2)
            reference._weights[cheap] = 0.5
            flat.weights[flat.index(cheap)] = 0.5
        assert_same_path(
            reference, flat, [Cell(1, 4)], [Cell(6, 4)], SLOT
        )

    def test_occupied_cells_block_identically(self):
        reference, flat = make_pair()
        busy = TimeSlot(0.0, 4.0)
        for y in range(0, 7):
            cell = Cell(3, y)
            reference.slots(cell).add(busy)
            flat.occupancy.add(flat.index(cell), busy.start, busy.end)
        assert_same_path(
            reference, flat, [Cell(1, 1)], [Cell(5, 1)], TimeSlot(1.0, 3.0)
        )

    def test_goal_slot_respected(self):
        reference, flat = make_pair()
        target = Cell(6, 4)
        late = TimeSlot(10.0, 12.0)
        reference.slots(target).add(late)
        flat.occupancy.add(flat.index(target), late.start, late.end)
        assert_same_path(
            reference, flat,
            [Cell(1, 4)], [target, Cell(6, 5)],
            TimeSlot(0.0, 2.0), goal_slot=TimeSlot(9.0, 11.0),
        )


class TestFlatRoutingState:
    def test_negative_weight_rejected(self):
        placement = Placement(
            ChipGrid(4, 4), {"B": PlacedComponent("B", 0, 0, 1, 1)}
        )
        with pytest.raises(RoutingError):
            FlatRoutingState(placement, initial_weight=-1.0)

    def test_queries_match_reference(self):
        reference, flat = make_pair(
            6, 5, {"B": PlacedComponent("B", 2, 2, 2, 1)}
        )
        for x in range(-1, 7):
            for y in range(-1, 6):
                cell = Cell(x, y)
                assert flat.is_routable(cell) == reference.is_routable(cell)
                assert flat.is_free(cell, SLOT) == reference.is_free(cell, SLOT)

    def test_commit_matches_reference_grid(self):
        reference, flat = make_pair()
        cells = (Cell(1, 1), Cell(2, 1), Cell(3, 1))
        slots = [TimeSlot(0.0, 3.0), TimeSlot(1.0, 4.0), TimeSlot(2.0, 5.0)]
        for state in (reference, flat):
            state.commit_path(cells, "t1", list(slots), 2.5)
        for cell in cells:
            assert flat.weight(cell) == reference.weight(cell) == 2.5
            assert flat.occupancy.intervals(flat.index(cell)) == [
                (slot.start, slot.end) for slot in reference.slots(cell)
            ]


# ----------------------------------------------------------------------
# Distance-map heuristic vs brute-force Manhattan minimum
# ----------------------------------------------------------------------


class TestDistanceMap:
    @staticmethod
    def brute_force(width, height, targets):
        return [
            min(abs(i % width - tx) + abs(i // width - ty) for tx, ty in targets)
            for i in range(width * height)
        ]

    @pytest.mark.parametrize(
        "width,height", [(1, 1), (1, 7), (7, 1), (9, 9), (22, 22)]
    )
    @pytest.mark.parametrize("target_set", ["corner", "edge", "duplicates", "all"])
    def test_matches_min_manhattan(self, width, height, target_set):
        from repro.route.flat import _distance_map

        if target_set == "corner":
            targets = [(width - 1, height - 1)]
        elif target_set == "edge":
            targets = [(width // 2, 0)]
        elif target_set == "duplicates":
            targets = [(0, height // 2), (width - 1, 0), (0, height // 2)]
        else:
            targets = [(x, y) for y in range(height) for x in range(width)]
        state = FlatRoutingState(Placement(ChipGrid(width, height), {}))
        dist = _distance_map(state, [y * width + x for x, y in targets])
        assert dist == self.brute_force(width, height, targets)
        assert all(type(d) is int for d in dist)
