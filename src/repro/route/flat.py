"""Flat array-backed routing engine — the production router's state and
A* search (Section IV-B.2, Eq. 5).

The search runs from the set of *port cells* of the source component to
any port cell of the destination component.  The cost of expanding cell
``ce_k`` is::

    Cost(k) = h(k) + g(k) + w(k)     if the task's slot fits on ce_k,
              +inf                   otherwise,

where (keeping the paper's notation) ``h`` is the realised path length
from the source, ``g`` the Manhattan lower bound to the nearest target,
and ``w`` the cell's current weight.  Cells whose slot sets conflict
with the task's occupation interval are pruned outright, which
eliminates the three transportation-conflict types of Section II-C.2 by
construction.

All state is flat and integer-indexed:

* a cell is the integer ``y * width + x``;
* the obstacle mask is a :class:`bytearray`, cell weights a plain
  ``list[float]`` — one indexed load per Eq. 5 term;
* per-cell occupation slots live in :class:`FlatOccupancy`, an
  interval index of parallel sorted ``(starts, ends)`` float lists per
  cell with the exact :class:`~repro.route.timeslots.TimeSlotSet`
  semantics (untouched cells are a single ``is None`` test);
* neighbours come from a table precomputed once per grid signature;
* the A* heuristic is read from a distance map (min Manhattan distance
  to the target set), memoized per target set.

Committed paths are replayed through
:meth:`FlatRoutingState.to_routing_grid` into a
:class:`~repro.route.grid_graph.RoutingGrid` for the metrics, checker,
wash, and visualisation stages.  The test suite keeps the original
Cell/dict A* as an oracle and pins path identity against it across
every benchmark and both flows.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from time import perf_counter
from typing import Iterable

from repro.assay.fluids import Fluid
from repro.errors import RoutingError, ValidationError
from repro.obs.instrument import Instrumentation
from repro.place.grid import Cell
from repro.place.placement import Placement
from repro.route.grid_graph import DEFAULT_INITIAL_WEIGHT, RoutingGrid
from repro.route.timeslots import TimeSlot
from repro.units import EPSILON, Seconds

__all__ = [
    "FlatOccupancy",
    "FlatRoutingState",
    "find_path_flat",
    "static_tables",
]


#: Per-grid-signature memo of the immutable search tables.  The tie and
#: neighbour tables depend only on ``(width, height)``, yet PR 5 rebuilt
#: both on every :class:`FlatRoutingState` construction — once per SA
#: restart and once per bench repeat.  The memo makes repeated searches
#: on an unchanged grid signature skip the precompute entirely; entries
#: are tiny (a few KB per distinct grid size) and grid sizes are drawn
#: from the benchmark registry, so the cache stays bounded.
_STATIC_TABLES: dict[
    tuple[int, int], tuple[list[int], list[tuple[int, ...]]]
] = {}


def static_tables(
    width: int, height: int
) -> tuple[list[int], list[tuple[int, ...]]]:
    """The ``(ties, neighbours)`` tables of a ``width x height`` grid.

    ``ties[i]`` is the heap tie-break key encoding the ``(x, y)``
    lexicographic order (``x * height + y``); ``neighbours[i]`` lists
    the valid orthogonal neighbours of cell ``i`` in
    ``Cell.neighbours()`` order (E, W, S, N) with off-grid entries
    dropped.  Memoized per grid signature — callers must treat the
    returned lists as immutable.
    """
    key = (width, height)
    cached = _STATIC_TABLES.get(key)
    if cached is not None:
        return cached
    n = width * height
    ties = [(i % width) * height + (i // width) for i in range(n)]
    neighbours: list[tuple[int, ...]] = []
    for i in range(n):
        x = i % width
        y = i // width
        around: list[int] = []
        if x + 1 < width:
            around.append(i + 1)
        if x > 0:
            around.append(i - 1)
        if y + 1 < height:
            around.append(i + width)
        if y > 0:
            around.append(i - width)
        neighbours.append(tuple(around))
    _STATIC_TABLES[key] = (ties, neighbours)
    return ties, neighbours


class FlatOccupancy:
    """Per-cell occupation intervals over flat cell indices.

    Semantically identical to one :class:`~repro.route.timeslots.
    TimeSlotSet` per cell — same half-open ``[start, end)`` intervals,
    same ``EPSILON`` slack at the joints, zero-length slots conflict
    with nothing — but stored as two parallel sorted float lists per
    *touched* cell.  Untouched cells cost one ``is None`` check, which
    is the common case on the A* hot path.
    """

    __slots__ = ("starts", "ends")

    def __init__(self, cell_count: int) -> None:
        self.starts: list[list[float] | None] = [None] * cell_count
        self.ends: list[list[float] | None] = [None] * cell_count

    def conflicts(self, index: int, cs: float, ce: float) -> bool:
        """Whether ``[cs, ce)`` overlaps any stored interval of *index*.

        Mirrors :meth:`TimeSlotSet.conflicts_with` exactly: a
        zero-length candidate (or stored interval) overlaps nothing,
        and the only candidates for overlap are the predecessor by
        start plus successors starting before the candidate ends.
        """
        if ce - cs <= EPSILON:
            return False
        starts = self.starts[index]
        if starts is None:
            return False
        ends = self.ends[index]
        i = bisect_left(starts, cs)
        if i:
            s = starts[i - 1]
            e = ends[i - 1]
            if e - s > EPSILON and s < ce - EPSILON and cs < e - EPSILON:
                return True
        m = len(starts)
        while i < m:
            s = starts[i]
            if s >= ce - EPSILON:
                break
            e = ends[i]
            if e - s > EPSILON and cs < e - EPSILON:
                return True
            i += 1
        return False

    def add(self, index: int, cs: float, ce: float) -> None:
        """Insert ``[cs, ce)``; raises :class:`ValidationError` on overlap."""
        if self.conflicts(index, cs, ce):
            raise ValidationError(
                f"slot [{cs}, {ce}) overlaps an existing occupation"
            )
        starts = self.starts[index]
        if starts is None:
            self.starts[index] = [cs]
            self.ends[index] = [ce]
            return
        i = bisect_left(starts, cs)
        starts.insert(i, cs)
        self.ends[index].insert(i, ce)  # type: ignore[union-attr]

    def intervals(self, index: int) -> list[tuple[float, float]]:
        """The stored ``(start, end)`` pairs of *index*, sorted by start."""
        starts = self.starts[index]
        if starts is None:
            return []
        ends = self.ends[index]
        return list(zip(starts, ends))  # type: ignore[arg-type]


class FlatRoutingState:
    """Routing-time state of the router.

    Exposes the same Cell-based query/commit surface as
    :class:`~repro.route.grid_graph.RoutingGrid` — ``is_routable`` /
    ``is_free`` / ``weight`` / ``commit_path`` — which the slot-planning
    and self-loop code of :mod:`repro.route.router` uses, while
    :func:`find_path_flat` reads the flat arrays directly.  Committed
    paths are logged; :meth:`to_routing_grid` replays the log into a
    :class:`~repro.route.grid_graph.RoutingGrid` for metrics, checker
    and visualisation.
    """

    def __init__(
        self,
        placement: Placement,
        initial_weight: float = DEFAULT_INITIAL_WEIGHT,
    ) -> None:
        if initial_weight < 0:
            raise RoutingError(
                f"initial weight must be >= 0, got {initial_weight}"
            )
        self.placement = placement
        self.grid = placement.grid
        self.initial_weight = initial_weight
        width = self.grid.width
        height = self.grid.height
        self.width = width
        self.height = height
        n = width * height
        blocked = bytearray(n)
        for cell in placement.occupied_cells():
            blocked[cell.y * width + cell.x] = 1
        self.blocked = blocked
        self.weights: list[float] = [float(initial_weight)] * n
        self.occupancy = FlatOccupancy(n)
        #: Heap tie-break keys and neighbour table, shared across every
        #: state with the same grid signature (see :func:`static_tables`).
        self.ties, self.neighbours = static_tables(width, height)
        #: Distance-map heuristic memo: target-index tuple -> distance
        #: list.  The heuristic ignores occupation slots (it is a lower
        #: bound over geometry only), so entries stay valid across path
        #: commits; the obstacle mask is fixed at construction, so the
        #: cache lives as long as the state.
        self._dist_cache: dict[tuple[int, ...], list[int]] = {}
        self._log: list[
            tuple[tuple[Cell, ...], str, Fluid, tuple[TimeSlot, ...], Seconds]
        ] = []

    # ------------------------------------------------------------------
    # Heuristic cache
    # ------------------------------------------------------------------
    def distance_map(
        self,
        target_indices: list[int],
        instrumentation: Instrumentation | None = None,
    ) -> list[int]:
        """Memoized :func:`_distance_map` over the target set.

        On the scale tier the same few target sets (one per component's
        port group) recur across hundreds of searches — Scale200 builds
        1.8k distance maps over only ~34 distinct target sets.  A cache
        hit bumps the ``astar.heuristic_cache_hits`` counter.
        """
        key = tuple(target_indices)
        dist = self._dist_cache.get(key)
        if dist is None:
            dist = _distance_map(self, target_indices)
            self._dist_cache[key] = dist
        elif instrumentation is not None:
            instrumentation.count("astar.heuristic_cache_hits")
        return dist

    # ------------------------------------------------------------------
    # Index helpers
    # ------------------------------------------------------------------
    def index(self, cell: Cell) -> int:
        return cell.y * self.width + cell.x

    def cell(self, index: int) -> Cell:
        return Cell(index % self.width, index // self.width)

    # ------------------------------------------------------------------
    # RoutingGrid-compatible queries (the cold, Cell-based surface)
    # ------------------------------------------------------------------
    def is_routable(self, cell: Cell) -> bool:
        x, y = cell
        if not (0 <= x < self.width and 0 <= y < self.height):
            return False
        return not self.blocked[y * self.width + x]

    def weight(self, cell: Cell) -> float:
        return self.weights[cell.y * self.width + cell.x]

    def is_free(self, cell: Cell, slot: TimeSlot) -> bool:
        x, y = cell
        if not (0 <= x < self.width and 0 <= y < self.height):
            return False
        index = y * self.width + x
        if self.blocked[index]:
            return False
        return not self.occupancy.conflicts(index, slot.start, slot.end)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def commit_path(
        self,
        cells: tuple[Cell, ...],
        task_id: str,
        fluid: Fluid,
        slots: list[TimeSlot],
        wash_time: Seconds,
    ) -> None:
        """Claim *cells* for a routed task (mirror of
        :meth:`RoutingGrid.commit_path`)."""
        if len(slots) != len(cells):
            raise RoutingError(
                f"task {task_id}: {len(slots)} slots for {len(cells)} cells",
                task_id=task_id,
            )
        for cell, slot in zip(cells, slots):
            if not self.is_free(cell, slot):
                raise RoutingError(
                    f"task {task_id}: cell {cell} is not free for slot "
                    f"[{slot.start}, {slot.end})",
                    task_id=task_id,
                )
        width = self.width
        occupancy = self.occupancy
        weights = self.weights
        for cell, slot in zip(cells, slots):
            index = cell.y * width + cell.x
            occupancy.add(index, slot.start, slot.end)
            weights[index] = wash_time
        self._log.append((cells, task_id, fluid, tuple(slots), wash_time))

    def to_routing_grid(self) -> RoutingGrid:
        """Replay the commit log into a :class:`RoutingGrid`.

        Uses :meth:`RoutingGrid._replay_log`, which reproduces the
        state repeated :meth:`RoutingGrid.commit_path` calls would have
        built — weights, slot sets, and usage history in identical dict
        insertion order, so every downstream consumer (metrics replay,
        checker, fault harness, SVG/ASCII rendering) is engine-blind —
        without paying per-slot validation for commits the live engine
        already validated.
        """
        grid = RoutingGrid(self.placement, self.initial_weight)
        grid._replay_log(self._log)
        return grid


def _distance_map(state: FlatRoutingState, target_indices: list[int]) -> list[int]:
    """Min Manhattan distance from every cell to the target set.

    The heuristic ignores obstacles (it is a lower bound), so this is a
    pure geometric distance map: a multi-source breadth-first search
    from the targets over the full neighbour table, ``blocked`` cells
    included.  On an obstacle-free 4-connected grid a cell's BFS depth
    is exactly its minimum Manhattan distance to the target set.
    *target_indices* must be non-empty (:func:`find_path_flat` returns
    before building a map for an empty target set).
    """
    neighbours = state.neighbours
    dist = [-1] * len(neighbours)
    frontier: list[int] = []
    for index in target_indices:
        if dist[index] < 0:
            dist[index] = 0
            frontier.append(index)
    depth = 0
    while frontier:
        depth += 1
        reached: list[int] = []
        for index in frontier:
            for nb in neighbours[index]:
                if dist[nb] < 0:
                    dist[nb] = depth
                    reached.append(nb)
        frontier = reached
    return dist


def _flush_search_stats(
    instrumentation: Instrumentation | None,
    expanded: int,
    reopened: int,
    found: bool,
    elapsed: float = 0.0,
) -> None:
    """Record one search's tallies on the instrumentation, if any.

    ``astar.searches``, ``astar.nodes_expanded`` (closed-set additions),
    ``astar.nodes_reopened`` (cost improvements of an already-discovered
    cell), and ``astar.failures`` for exhausted searches.  *elapsed*
    (wall-clock seconds of the whole search) additionally feeds the
    ``astar.search_seconds`` latency histogram — the p50/p90/p99
    route-search figures of the ledger.
    """
    if instrumentation is None:
        return
    instrumentation.count("astar.searches")
    instrumentation.count("astar.nodes_expanded", expanded)
    instrumentation.count("astar.nodes_reopened", reopened)
    if not found:
        instrumentation.count("astar.failures")
    instrumentation.observe("astar.search_seconds", elapsed)
    instrumentation.event(
        "astar.search", expanded=expanded, reopened=reopened, found=found
    )


def find_path_flat(
    grid: FlatRoutingState,
    sources: Iterable[Cell],
    targets: Iterable[Cell],
    slot: TimeSlot,
    goal_slot: TimeSlot | None = None,
    instrumentation: Instrumentation | None = None,
    *,
    use_weights: bool = True,
    use_slots: bool = True,
) -> tuple[Cell, ...] | None:
    """A* from any source port to any target port under Eq. 5.

    *slot* is the transit occupation checked on every traversed cell;
    *goal_slot* (defaulting to *slot*) is the — typically longer —
    occupation the path's final cell must accommodate.  A target cell
    whose goal slot is blocked may still be crossed in transit.

    ``use_weights=False`` zeroes the ``w(k)`` term and
    ``use_slots=False`` skips occupation checks: the baseline router's
    uniform-cost detours and geometry-only shortest paths.

    Returns the cell path (source and target inclusive) or ``None``
    when no admissible path exists.  Deterministic: ties in cost are
    broken by ``(x, y)`` cell coordinates.
    """
    started = perf_counter()
    if goal_slot is None:
        goal_slot = slot
    width = grid.width
    height = grid.height
    blocked = grid.blocked
    occupancy = grid.occupancy
    conflicts = occupancy.conflicts
    occupancy_starts = occupancy.starts
    cs = slot.start
    ce = slot.end
    check_slot = use_slots and (ce - cs) > EPSILON
    gs = goal_slot.start
    ge = goal_slot.end
    check_goal = use_slots and (ge - gs) > EPSILON

    target_indices: list[int] = []
    for target in targets:
        x, y = target
        if 0 <= x < width and 0 <= y < height:
            index = y * width + x
            if not blocked[index]:
                target_indices.append(index)
    source_indices: list[int] = []
    for source in sources:
        x, y = source
        if not (0 <= x < width and 0 <= y < height):
            continue
        index = y * width + x
        if blocked[index]:
            continue
        if check_slot and conflicts(index, cs, ce):
            continue
        source_indices.append(index)
    if not target_indices or not source_indices:
        _flush_search_stats(
            instrumentation, expanded=0, reopened=0, found=False,
            elapsed=perf_counter() - started,
        )
        return None

    n = width * height
    dist = grid.distance_map(target_indices, instrumentation)
    weights = grid.weights if use_weights else [0.0] * n
    ties = grid.ties
    neighbour_table = grid.neighbours
    target_mask = bytearray(n)
    for index in target_indices:
        target_mask[index] = 1

    inf = float("inf")
    accumulated: list[float] = [inf] * n
    parent: list[int] = [-1] * n
    closed = bytearray(n)
    open_heap: list[tuple[float, int, int]] = []
    heappush = heapq.heappush
    heappop = heapq.heappop
    expanded = 0
    reopened = 0
    for index in source_indices:
        cost = 1.0 + weights[index]
        if cost < accumulated[index]:
            accumulated[index] = cost
            parent[index] = -1
            heappush(open_heap, (cost + dist[index], ties[index], index))

    path: tuple[Cell, ...] | None = None
    while open_heap:
        _f, _tie, index = heappop(open_heap)
        if closed[index]:
            continue
        closed[index] = 1
        expanded += 1
        if target_mask[index] and not (
            check_goal and conflicts(index, gs, ge)
        ):
            chain = [index]
            previous = parent[index]
            while previous != -1:
                chain.append(previous)
                previous = parent[previous]
            chain.reverse()
            path = tuple(Cell(i % width, i // width) for i in chain)
            break
        base = accumulated[index] + 1.0
        for ni in neighbour_table[index]:
            # A consistent heuristic settles a cell's cost when it is
            # closed, so a closed neighbour can never improve.
            if closed[ni] or blocked[ni]:
                continue
            if (
                check_slot
                and occupancy_starts[ni] is not None
                and conflicts(ni, cs, ce)
            ):
                continue
            cost = base + weights[ni]
            old = accumulated[ni]
            if cost < old:
                if old is not inf:
                    reopened += 1
                accumulated[ni] = cost
                parent[ni] = index
                heappush(open_heap, (cost + dist[ni], ties[ni], ni))
    _flush_search_stats(
        instrumentation, expanded=expanded, reopened=reopened,
        found=path is not None, elapsed=perf_counter() - started,
    )
    return path
