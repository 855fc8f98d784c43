"""Property-based tests for placement legality and routing invariants."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.place.grid import Cell, ChipGrid
from repro.place.moves import random_move, random_placement
from repro.place.placement import Placement
from repro.route.flat import FlatRoutingState, find_path_flat
from repro.route.timeslots import TimeSlot


footprint_sets = st.dictionaries(
    keys=st.sampled_from(["A", "B", "C", "D", "E"]),
    values=st.tuples(
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=1, max_value=3),
    ),
    min_size=1,
    max_size=4,
)


@settings(max_examples=40, deadline=None)
@given(footprint_sets, st.integers(min_value=0, max_value=10_000))
def test_random_placement_legal_or_none(footprints, seed):
    rng = random.Random(seed)
    placement = random_placement(ChipGrid(12, 12), footprints, rng)
    if placement is not None:
        assert placement.is_legal()
        assert set(placement.components()) == set(footprints)


@settings(max_examples=60, deadline=None)
@given(footprint_sets, st.integers(min_value=0, max_value=10_000))
def test_legality_implies_connected_free_plane(footprints, seed):
    """The fast legality predicate (clearance + no-full-span) must imply
    the expensive BFS invariant it replaced: a legal placement's free
    cells form one 4-connected region and every block keeps a port."""
    rng = random.Random(seed)
    placement = random_placement(ChipGrid(11, 11), footprints, rng)
    if placement is None or not placement.is_legal():
        return
    occupied = placement.occupied_cells()
    assert placement._free_plane_connected(occupied)
    for cid in placement.components():
        assert placement.has_free_port(cid)
        assert placement.ports(cid)


@settings(max_examples=40, deadline=None)
@given(footprint_sets, st.integers(min_value=0, max_value=10_000))
def test_moves_preserve_legality(footprints, seed):
    rng = random.Random(seed)
    placement = random_placement(ChipGrid(12, 12), footprints, rng)
    if placement is None:
        return
    for _ in range(5):
        candidate = random_move(placement, rng)
        if candidate is None:
            break
        assert candidate.is_legal()
        placement = candidate


@st.composite
def path_queries(draw):
    """An open grid plus random source/target cells and a slot."""
    width = draw(st.integers(min_value=4, max_value=10))
    height = draw(st.integers(min_value=4, max_value=10))
    sx = draw(st.integers(min_value=0, max_value=width - 1))
    sy = draw(st.integers(min_value=0, max_value=height - 1))
    tx = draw(st.integers(min_value=0, max_value=width - 1))
    ty = draw(st.integers(min_value=0, max_value=height - 1))
    return width, height, Cell(sx, sy), Cell(tx, ty)


@settings(max_examples=60, deadline=None)
@given(path_queries())
def test_astar_on_empty_grid_is_manhattan_optimal(query):
    width, height, source, target = query
    placement = Placement(ChipGrid(width, height), {})
    grid = FlatRoutingState(placement, initial_weight=0.0)
    path = find_path_flat(grid, [source], [target], TimeSlot(0.0, 1.0))
    assert path is not None
    assert len(path) == source.manhattan(target) + 1
    assert path[0] == source and path[-1] == target
    for a, b in zip(path, path[1:]):
        assert a.manhattan(b) == 1


@settings(max_examples=40, deadline=None)
@given(
    path_queries(),
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=9),
            st.integers(min_value=0, max_value=9),
        ),
        max_size=8,
    ),
)
def test_astar_never_uses_occupied_cells(query, busy_cells):
    width, height, source, target = query
    placement = Placement(ChipGrid(width, height), {})
    grid = FlatRoutingState(placement, initial_weight=0.0)
    slot = TimeSlot(0.0, 5.0)
    blocked = set()
    for x, y in busy_cells:
        cell = Cell(x % width, y % height)
        if cell in blocked:
            continue
        blocked.add(cell)
        grid.commit_path(
            (cell,), f"busy{x}-{y}", [TimeSlot(0.0, 100.0)], 1.0
        )
    path = find_path_flat(grid, [source], [target], slot)
    if path is not None:
        assert not (set(path) & blocked)
