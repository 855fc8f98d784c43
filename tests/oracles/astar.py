"""Reference Cell/dict A* (Section IV-B.2, Eq. 5) — a test oracle.

The production router searches flat integer-indexed state
(:func:`repro.route.flat.find_path_flat`).  This module keeps the
original formulation over :class:`~tests.oracles.routing_grid.RoutingGrid`
— dict/set state keyed by :class:`~repro.place.grid.Cell`, the
Manhattan heuristic recomputed per cell — so the parity suites can
check the production search against an independent implementation.

:func:`route_tasks_reference` and :func:`route_tasks_baseline_reference`
drive the production routing loops through this search on a
:class:`RoutingGrid`; both return results that must be identical to
:func:`repro.route.route_tasks` / :func:`repro.route.route_tasks_baseline`.
"""

from __future__ import annotations

import functools
import heapq
from contextlib import contextmanager
from time import perf_counter
from typing import Iterable, Sequence

import pytest

from repro.obs.instrument import Instrumentation
from repro.place.grid import Cell
from repro.place.placement import Placement
from repro.route.baseline_router import _route_baseline
from repro.route.flat import DEFAULT_INITIAL_WEIGHT, _flush_search_stats
from repro.route.router import RoutingResult, _route
from repro.route.timeslots import TimeSlot
from repro.schedule.tasks import TransportTask
from tests.oracles.routing_grid import RoutingGrid

__all__ = [
    "find_path",
    "find_path_reference",
    "reference_routing",
    "route_tasks_baseline_reference",
    "route_tasks_reference",
]


def _heuristic(cell: Cell, targets: Sequence[Cell]) -> int:
    """Manhattan distance to the nearest target (admissible)."""
    return min(cell.manhattan(target) for target in targets)


def find_path(
    grid: RoutingGrid,
    sources: Iterable[Cell],
    targets: Iterable[Cell],
    slot: TimeSlot,
    goal_slot: TimeSlot | None = None,
    instrumentation: Instrumentation | None = None,
) -> tuple[Cell, ...] | None:
    """A* from any source port to any target port under Eq. 5.

    *slot* is the transit occupation checked on every traversed cell;
    *goal_slot* (defaulting to *slot*) is the — typically longer —
    occupation the path's final cell must accommodate, covering the
    distributed-channel cache beside the destination.  A target cell
    whose goal slot is blocked may still be crossed in transit.

    *instrumentation* receives the search statistics once per call,
    through the production router's own flush.

    Returns the cell path (source and target inclusive) or ``None`` when
    no admissible path exists.  Deterministic: ties in cost are broken
    by cell coordinates.
    """
    started = perf_counter()
    if goal_slot is None:
        goal_slot = slot
    target_list = [t for t in targets if grid.is_routable(t)]
    source_list = [s for s in sources if grid.is_free(s, slot)]
    if not target_list or not source_list:
        _flush_search_stats(
            instrumentation, expanded=0, reopened=0, found=False,
            elapsed=perf_counter() - started,
        )
        return None
    target_set = set(target_list)

    # Priority queue entries: (f, tie, cell); g/w accumulated separately.
    # Search statistics are tallied in locals and flushed once per call,
    # keeping instrumentation off the per-expansion path.  The heuristic
    # is memoised per cell for the duration of the search (targets never
    # change mid-search), and the hot grid methods are bound to locals.
    expanded = 0
    reopened = 0
    open_heap: list[tuple[float, tuple[int, int], Cell]] = []
    accumulated: dict[Cell, float] = {}
    parent: dict[Cell, Cell | None] = {}
    h_cache: dict[Cell, int] = {}
    h_get = h_cache.get
    acc_get = accumulated.get
    is_free = grid.is_free
    weight = grid.weight
    heappush = heapq.heappush
    heappop = heapq.heappop
    inf = float("inf")
    for source in source_list:
        cost = 1.0 + weight(source)  # the source cell itself is used
        if cost < acc_get(source, inf):
            accumulated[source] = cost
            parent[source] = None
            h = _heuristic(source, target_list)
            h_cache[source] = h
            heappush(open_heap, (cost + h, (source.x, source.y), source))

    path: tuple[Cell, ...] | None = None
    closed: set[Cell] = set()
    while open_heap:
        _f, _tie, cell = heappop(open_heap)
        if cell in closed:
            continue
        closed.add(cell)
        expanded += 1
        if cell in target_set and is_free(cell, goal_slot):
            path = _reconstruct(parent, cell)
            break
        base = accumulated[cell] + 1.0
        for neighbour in cell.neighbours():
            # A consistent heuristic settles a cell's cost when it is
            # closed, so a closed neighbour can never improve — skipping
            # here avoids the is_free/weight work *and* the heap push.
            if neighbour in closed:
                continue
            if not is_free(neighbour, slot):
                continue
            cost = base + weight(neighbour)
            old = acc_get(neighbour, inf)
            if cost < old:
                if old is not inf:
                    reopened += 1
                accumulated[neighbour] = cost
                parent[neighbour] = cell
                h = h_get(neighbour)
                if h is None:
                    h = _heuristic(neighbour, target_list)
                    h_cache[neighbour] = h
                heappush(
                    open_heap, (cost + h, (neighbour.x, neighbour.y), neighbour)
                )
    _flush_search_stats(
        instrumentation, expanded=expanded, reopened=reopened,
        found=path is not None, elapsed=perf_counter() - started,
    )
    return path


def _reconstruct(parent: dict[Cell, Cell | None], cell: Cell) -> tuple[Cell, ...]:
    path = [cell]
    while True:
        previous = parent[path[-1]]
        if previous is None:
            break
        path.append(previous)
    path.reverse()
    return tuple(path)


class _ZeroWeightView:
    """Read-only adapter hiding weights and slots from the A* search."""

    def __init__(self, grid: RoutingGrid):
        self._grid = grid

    def is_routable(self, cell: Cell) -> bool:
        return self._grid.is_routable(cell)

    def is_free(self, cell: Cell, _slot: TimeSlot) -> bool:
        return self._grid.is_routable(cell)

    def weight(self, _cell: Cell) -> float:
        return 0.0


class _UniformCostView:
    """Adapter keeping occupation checks but hiding wash-time weights.

    The baseline's correction detours: conflict-aware, but with none of
    the weight guidance that makes the proposed router share
    cheap-to-wash channels."""

    def __init__(self, grid: RoutingGrid):
        self._grid = grid

    def is_routable(self, cell: Cell) -> bool:
        return self._grid.is_routable(cell)

    def is_free(self, cell: Cell, slot: TimeSlot) -> bool:
        return self._grid.is_free(cell, slot)

    def weight(self, _cell: Cell) -> float:
        return 0.0


def find_path_reference(
    grid: RoutingGrid,
    sources: Iterable[Cell],
    targets: Iterable[Cell],
    slot: TimeSlot,
    goal_slot: TimeSlot | None = None,
    instrumentation: Instrumentation | None = None,
    *,
    use_weights: bool = True,
    use_slots: bool = True,
) -> tuple[Cell, ...] | None:
    """:func:`find_path` behind the signature of ``find_path_flat``.

    ``use_slots=False`` searches geometry only (the baseline's
    construction: weights and slots hidden); ``use_weights=False``
    keeps occupation checks but zeroes the weights (its correction
    detours).
    """
    if not use_slots:
        view = _ZeroWeightView(grid)
    elif not use_weights:
        view = _UniformCostView(grid)
    else:
        view = grid
    return find_path(
        view, sources, targets, slot, goal_slot, instrumentation=instrumentation
    )


def route_tasks_reference(
    placement: Placement,
    tasks: list[TransportTask],
    initial_weight: float = DEFAULT_INITIAL_WEIGHT,
    instrumentation: Instrumentation | None = None,
    engine: str = "flat",
    finder=find_path_reference,
) -> RoutingResult:
    """The production routing loop over a :class:`RoutingGrid` and *finder*.

    Accepts (and ignores) *engine* so it can stand in for
    :func:`repro.route.route_tasks` inside the synthesis flow.
    """
    return _route(
        placement, tasks, RoutingGrid(placement, initial_weight), finder,
        instrumentation,
    )


def route_tasks_baseline_reference(
    placement: Placement,
    tasks: list[TransportTask],
    instrumentation: Instrumentation | None = None,
    engine: str = "flat",
) -> RoutingResult:
    """The baseline routing loop over a :class:`RoutingGrid` and the oracle."""
    return _route_baseline(
        placement, tasks, RoutingGrid(placement, initial_weight=0.0),
        find_path_reference, instrumentation,
    )


@contextmanager
def reference_routing(finder=find_path_reference):
    """Route both synthesis flows through the oracle inside the block.

    Swaps the flows' router entries for :func:`route_tasks_reference`
    (searching with *finder*) and :func:`route_tasks_baseline_reference`,
    so a whole pipeline — metrics and checker included — runs on the
    reference A* over a :class:`RoutingGrid`.
    """
    import repro.core.baseline as baseline_flow
    import repro.core.synthesizer as proposed_flow

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            proposed_flow, "route_tasks",
            functools.partial(route_tasks_reference, finder=finder),
        )
        patch.setattr(
            baseline_flow, "route_tasks_baseline",
            route_tasks_baseline_reference,
        )
        yield
