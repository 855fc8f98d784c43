"""Transportation-conflict-aware routing (Algorithm 2, lines 9–18).

Tasks are routed in non-decreasing start-time order.  For each task the
improved A* of :mod:`repro.route.flat` searches a path whose *transit*
occupation fits every traversed cell; the path is then given a **slot
plan** assigning each cell the occupation matching its role:

* cells up to the cache cell — ``[depart, arrive)``: the fluid passes
  on its way in;
* the **cache cell** — the path cell closest to the destination that can
  host the plug — ``[depart, consume)``: transport and distributed-
  channel cache;
* cells past the cache cell — ``[consume − t_c, consume)``: they are
  only traversed when the plug finally moves into the destination.

Following the paper, the wash of the residue is not part of any slot:
Eq. 5 blocks cells for transport and cache only.

Committed paths update cell weights to their residue's wash time,
steering later tasks onto channels that are cheap to reuse (increasing
path sharing, exactly as the paper argues).  Each :class:`RoutedPath`
keeps the slot plan it was committed with, so the returned
:class:`RoutingResult` is the whole routing record: the per-cell usage
history that metrics, checker and renderers read is derived from the
paths, and the routing state is dropped when the loop returns.

A postponement fallback handles the rest: when no admissible plan
exists, the task slides forward in 1-second steps until one does.  It
fires more often as assays grow.  At seed 1 it postpones 0 of 3 tasks on
PCR, 10 of 47 on CPA, 11 of 44 on Synthetic4, 44 of 80 on Scale100 and
146 of 181 on Scale200 (docs/ALGORITHMS.md §5 has every row).  It is also
the *primary* correction mechanism of the baseline router in
:mod:`repro.route.baseline_router`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import RoutingError
from repro.obs.instrument import Instrumentation
from repro.place.grid import Cell
from repro.place.placement import Placement
from repro.route.flat import (
    DEFAULT_INITIAL_WEIGHT,
    FlatRoutingState,
    find_path_flat,
)
from repro.route.paths import CellUsage, RoutedPath
from repro.route.timeslots import TimeSlot
from repro.schedule.tasks import TransportTask
from repro.units import Millimetres, Seconds

__all__ = [
    "ROUTE_ENGINES",
    "DEFAULT_ROUTE_ENGINE",
    "RoutingResult",
    "route_tasks",
    "plan_path_slots",
]

#: Step and budget for the defensive postponement fallback.
_POSTPONE_STEP: Seconds = 1.0
_POSTPONE_LIMIT: int = 1000

#: Settable values of ``route_tasks(engine=)`` and
#: ``SynthesisParameters.route_engine``.  ``"flat"`` is the only router;
#: the value stays part of every problem digest and result document.
ROUTE_ENGINES = ("flat",)
DEFAULT_ROUTE_ENGINE = "flat"


def check_route_engine(engine: str) -> None:
    """Raise :class:`RoutingError` unless *engine* is a route engine."""
    if engine not in ROUTE_ENGINES:
        raise RoutingError(
            f"unknown route engine {engine!r}; expected one of {ROUTE_ENGINES}"
        )


@dataclass
class RoutingResult:
    """All routed paths, in commit order."""

    placement: Placement
    paths: list[RoutedPath] = field(default_factory=list)

    def path_for(self, task_id: str) -> RoutedPath:
        for path in self.paths:
            if path.task.task_id == task_id:
                return path
        raise RoutingError(f"no routed path for task {task_id!r}", task_id=task_id)

    def used_cells(self) -> set[Cell]:
        """Cells that carry at least one routed task (channel footprint)."""
        return {cell for path in self.paths for cell in path.cells}

    def usage_history(self) -> dict[Cell, list[CellUsage]]:
        """Per-cell usage events, in commit order.

        Cells appear in the order a commit first touched them and each
        list in commit order, so every consumer sums and sorts over the
        same sequence the routing loop produced.
        """
        history: dict[Cell, list[CellUsage]] = {}
        for path in self.paths:
            task_id = path.task.task_id
            fluid = path.task.fluid
            for cell, slot in zip(path.cells, path.occupations):
                history.setdefault(cell, []).append(
                    CellUsage(task_id, fluid, slot)
                )
        return history

    @property
    def total_length_cells(self) -> int:
        """Distinct channel cells used by any task — the physical channel
        network's footprint.  Shared segments count once, which is what
        makes path sharing profitable (Table I's channel-length metric)."""
        return len(self.used_cells())

    def total_length_mm(self) -> Millimetres:
        return self.placement.grid.length_mm(self.total_length_cells)

    def postponements(self) -> dict[tuple[str, str], Seconds]:
        """Per-edge extra delays (empty for a conflict-free routing)."""
        return {
            (p.task.producer, p.task.consumer): p.postponement
            for p in self.paths
            if p.postponement > 0
        }

    @property
    def total_postponement(self) -> Seconds:
        return sum(p.postponement for p in self.paths)


def _transit_slot(task: TransportTask, delay: Seconds) -> TimeSlot:
    """Transit occupation of *task*, shifted by *delay*."""
    start, end = task.transit_occupation
    return TimeSlot(start + delay, end + delay)


def _cache_slot(task: TransportTask, delay: Seconds) -> TimeSlot:
    """Full (cache-cell) occupation of *task*, shifted by *delay*."""
    start, end = task.occupation
    return TimeSlot(start + delay, end + delay)


def plan_path_slots(
    grid: FlatRoutingState,
    cells: tuple[Cell, ...],
    task: TransportTask,
    delay: Seconds,
    avoid_for_cache: set[Cell] | None = None,
) -> list[TimeSlot] | None:
    """Assign each path cell its occupation slot (see module docstring).

    The cache cell is chosen as late (destination-most) as possible, but
    cells in *avoid_for_cache* — typically the component port cells,
    which later tasks must cross — are only used as a last resort: a
    plug parked on a port would block every subsequent arrival at that
    component for its whole cache duration.  Returns ``None`` when no
    cell of the path can host the cache plug or some cell is otherwise
    occupied.
    """
    transit = _transit_slot(task, delay)
    cache = _cache_slot(task, delay)
    travel = task.arrive - task.depart
    tail = TimeSlot(
        max(task.depart + delay, task.consume + delay - travel),
        cache.end,
    )
    avoid = avoid_for_cache or set()
    candidate_order = [
        index
        for index in range(len(cells) - 1, -1, -1)
        if cells[index] not in avoid
    ] + [
        index
        for index in range(len(cells) - 1, -1, -1)
        if cells[index] in avoid
    ]
    for index in candidate_order:
        if not grid.is_free(cells[index], cache):
            continue
        slots: list[TimeSlot] = []
        feasible = True
        for position, cell in enumerate(cells):
            if position < index:
                slot = transit
            elif position == index:
                slot = cache
            else:
                slot = tail
            if position != index and not grid.is_free(cell, slot):
                feasible = False
                break
            slots.append(slot)
        if feasible:
            return slots
    return None


def _route_self_loop(
    grid: FlatRoutingState, ports: list[Cell], slot: TimeSlot
) -> tuple[Cell, ...] | None:
    """Path for a task whose source and destination coincide (an evicted
    fluid cached beside, and returning to, its own component): occupy one
    nearby channel cell for the cache duration.

    Port cells themselves are used only as a last resort — a plug parked
    on a port blocks every later arrival at the component — so free
    non-port neighbours of the ports are preferred.
    """
    port_set = set(ports)
    neighbourhood: list[Cell] = []
    seen: set[Cell] = set()
    for port in ports:
        for cell in port.neighbours():
            if cell not in seen and cell not in port_set and grid.is_routable(cell):
                seen.add(cell)
                neighbourhood.append(cell)
    for candidates in (neighbourhood, ports):
        free = [cell for cell in candidates if grid.is_free(cell, slot)]
        if free:
            best = min(free, key=lambda c: (grid.weight(c), c.x, c.y))
            return (best,)
    return None


def route_tasks(
    placement: Placement,
    tasks: list[TransportTask],
    initial_weight: float = DEFAULT_INITIAL_WEIGHT,
    instrumentation: Instrumentation | None = None,
    engine: str = DEFAULT_ROUTE_ENGINE,
) -> RoutingResult:
    """Route *tasks* (Algorithm 2, lines 9–18).

    Tasks are processed in non-decreasing start time (the caller's list
    order is re-sorted defensively).  Raises :class:`RoutingError` when
    even the postponement fallback cannot realise a task.

    *engine* must be ``"flat"`` (see :data:`ROUTE_ENGINES`).

    *instrumentation* receives per-task ``route.task`` events plus the
    ``route.tasks_routed`` / ``route.self_loops`` /
    ``route.conflict_retries`` / ``route.postponements`` counters (and
    the A* search statistics of every search).
    """
    check_route_engine(engine)
    return _route(
        placement,
        tasks,
        FlatRoutingState(placement, initial_weight),
        find_path_flat,
        instrumentation,
    )


def _route(
    placement: Placement,
    tasks: list[TransportTask],
    grid,
    finder,
    instrumentation: Instrumentation | None,
) -> RoutingResult:
    """The routing loop over a ``(grid, finder)`` pair.

    *grid* offers the ``is_routable`` / ``is_free`` / ``weight`` /
    ``commit_path`` surface of :class:`FlatRoutingState` and *finder*
    searches it with the signature of :func:`find_path_flat`.
    """
    result = RoutingResult(placement=placement)
    ordered = sorted(tasks, key=lambda t: (t.depart, t.task_id))
    # Ports are pure geometry; compute them once per component instead
    # of once per task endpoint.
    port_cache = {
        cid: placement.ports(cid) for cid in placement.components()
    }
    all_ports = {cell for ports in port_cache.values() for cell in ports}
    for task in ordered:
        sources = port_cache[task.src_component]
        targets = port_cache[task.dst_component]
        delay = 0.0
        cells: tuple[Cell, ...] | None = None
        slots: list[TimeSlot] | None = None
        for step_index in range(_POSTPONE_LIMIT):
            delay = step_index * _POSTPONE_STEP
            if task.src_component == task.dst_component:
                cells = _route_self_loop(grid, sources, _cache_slot(task, delay))
                slots = [_cache_slot(task, delay)] if cells else None
            else:
                cells = finder(
                    grid,
                    sources,
                    targets,
                    _transit_slot(task, delay),
                    instrumentation=instrumentation,
                )
                slots = (
                    plan_path_slots(
                        grid, cells, task, delay, avoid_for_cache=all_ports
                    )
                    if cells is not None
                    else None
                )
            if slots is not None:
                break
            if instrumentation is not None:
                instrumentation.count("route.conflict_retries")
        if cells is None or slots is None:
            raise RoutingError(
                f"task {task.task_id} ({task.src_component} -> "
                f"{task.dst_component}) could not be routed within the "
                f"postponement budget",
                task_id=task.task_id,
            )
        grid.commit_path(cells, task.task_id, slots, task.wash_time)
        result.paths.append(
            RoutedPath(
                task=task,
                cells=cells,
                slot=_cache_slot(task, delay),
                occupations=tuple(slots),
                postponement=delay,
            )
        )
        if instrumentation is not None:
            instrumentation.count("route.tasks_routed")
            if task.src_component == task.dst_component:
                instrumentation.count("route.self_loops")
            if delay > 0:
                # The 1-second-step fallback fired: record it with the
                # slide distance so perf artifacts can show when the
                # fallback — not A* — is eating routing time.
                instrumentation.count("route.postponements")
                instrumentation.event(
                    "route.postponement", task_id=task.task_id, slide=delay
                )
            instrumentation.event(
                "route.task",
                task_id=task.task_id,
                cells=len(cells),
                postponement=delay,
            )
    return result
