"""Construction-by-correction routing — the baseline's router.

Section V describes BA's physical stage as "generating an initial
solution and then correct[ing] those unsatisfactory component
positions/routing paths sequentially".  The router here mirrors that:

1. **Construction** — every task gets a plain shortest path (uniform
   cell cost, no wash-weight guidance, occupation slots ignored).
2. **Correction** — tasks are revisited in start order; when a task's
   occupation slots overlap already-committed slots on shared cells,
   the path is re-routed around the conflict (still with uniform cost —
   BA never uses the wash-time weights that let the proposed router
   share cheap channels), and when no conflict-free detour exists the
   task is *postponed* until its slots fit.

The postponements are exactly the delays the paper attributes to BA in
Section II-C.2 (e.g. the shared segment in Fig. 4(a) forcing the
``o4→o6`` transport to wait for a 10 s wash).  They are returned per
edge so :func:`repro.schedule.retiming.retime_with_delays` can propagate
them into the baseline's final execution time.
"""

from __future__ import annotations

from repro.errors import RoutingError
from repro.obs.instrument import Instrumentation
from repro.place.grid import Cell
from repro.place.placement import Placement
from repro.route.flat import FlatRoutingState, find_path_flat
from repro.route.paths import RoutedPath
from repro.route.router import (
    DEFAULT_ROUTE_ENGINE,
    RoutingResult,
    _cache_slot,
    _transit_slot,
    check_route_engine,
    plan_path_slots,
)
from repro.route.timeslots import TimeSlot
from repro.schedule.tasks import TransportTask

__all__ = ["route_tasks_baseline"]

#: Zero-length slot for geometry-only searches (conflicts with nothing).
_GEOMETRY_PROBE = TimeSlot(0.0, 0.0)


def route_tasks_baseline(
    placement: Placement,
    tasks: list[TransportTask],
    instrumentation: Instrumentation | None = None,
    engine: str = DEFAULT_ROUTE_ENGINE,
) -> RoutingResult:
    """Route *tasks* with the construction-by-correction strategy.

    *engine* must be ``"flat"`` (see
    :data:`~repro.route.router.ROUTE_ENGINES`).

    *instrumentation* receives ``route.tasks_routed``,
    ``route.conflict_retries`` (postponement steps),
    ``route.postponements`` (tasks the fallback actually delayed, with
    the slide distance), and ``route.reroutes`` (accepted correction
    detours), plus the A* statistics of every search.
    """
    check_route_engine(engine)
    return _route_baseline(
        placement,
        tasks,
        FlatRoutingState(placement, initial_weight=0.0),
        find_path_flat,
        instrumentation,
    )


def _route_baseline(
    placement: Placement,
    tasks: list[TransportTask],
    grid,
    finder,
    instrumentation: Instrumentation | None,
) -> RoutingResult:
    """The construction-by-correction loop over a ``(grid, finder)`` pair.

    *finder* has the signature of :func:`find_path_flat`; construction
    calls it geometry-only (``use_weights=False, use_slots=False``) and
    correction detours occupation-aware but uniform-cost
    (``use_weights=False, use_slots=True``).
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
        if task.src_component == task.dst_component:
            # Self-loop: take the first port regardless of occupation,
            # then correct below like any other path.
            cells: tuple[Cell, ...] | None = (sources[0],)
        else:
            cells = finder(
                grid, sources, targets, _GEOMETRY_PROBE,
                instrumentation=instrumentation,
                use_weights=False, use_slots=False,
            )
        if cells is None:
            raise RoutingError(
                f"task {task.task_id} ({task.src_component} -> "
                f"{task.dst_component}) has no geometric path",
                task_id=task.task_id,
            )
        # Correction: when the constructed path conflicts, first try a
        # detour (uniform cost, occupation-aware), then postpone in
        # 1-second steps until a feasible plan exists.
        delay = 0.0
        slots = plan_path_slots(
            grid, cells, task, delay, avoid_for_cache=all_ports
        )
        while slots is None:
            if task.src_component != task.dst_component:
                rerouted = finder(
                    grid, sources, targets, _transit_slot(task, delay),
                    instrumentation=instrumentation,
                    use_weights=False, use_slots=True,
                )
                if rerouted is not None:
                    candidate = plan_path_slots(
                        grid, rerouted, task, delay, avoid_for_cache=all_ports
                    )
                    if candidate is not None:
                        cells = rerouted
                        slots = candidate
                        if instrumentation is not None:
                            instrumentation.count("route.reroutes")
                        break
            delay += 1.0
            if instrumentation is not None:
                instrumentation.count("route.conflict_retries")
            slots = plan_path_slots(
                grid, cells, task, delay, avoid_for_cache=all_ports
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
            if delay > 0:
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
