"""Independent design-rule checks of a finished routing.

Audits a :class:`~repro.route.router.RoutingResult` against the schedule
it realises and the placement it routes over.  Path geometry and the
per-cell occupations the paths record are re-verified with local
arithmetic: connectivity and the one-occupation-per-cell shape are not
assumed from ``RoutedPath.__post_init__`` (fault injection can bypass
it), obstacle tests recompute block cells from the placement instead of
trusting the router's obstacle mask, the per-cell view is rebuilt here
from ``path.cells``/``path.occupations`` rather than read from
:meth:`RoutingResult.usage_history`, and the Eq. 5 interval test is
reimplemented rather than imported from :mod:`repro.route.timeslots`.

Emitted rules: ``RTE-COVERAGE``, ``RTE-CONNECTIVITY``, ``RTE-OBSTACLE``,
``RTE-ENDPOINTS``, ``RTE-CONFLICT``, ``RTE-COMMIT``.

``RTE-COVERAGE`` compares task *ids* only (the ids the schedule's
movement list induces); the timing payload of an embedded task is not
diffed against the movement so that a corrupted schedule fires its own
``SCH-*`` rule instead of cascading into the routing domain.
"""

from __future__ import annotations

from collections import Counter

from repro.check.report import Violation
from repro.place.grid import Cell
from repro.place.placement import Placement
from repro.route.router import RoutingResult
from repro.schedule.schedule import Schedule
from repro.units import EPSILON

__all__ = ["check_routing"]

#: A self-loop cache cell sits next to a port, i.e. within two cells of
#: the block; a normal path endpoint attaches directly (distance one).
_ATTACH_DISTANCE = 1
_SELF_LOOP_DISTANCE = 2


def check_routing(
    schedule: Schedule,
    placement: Placement,
    routing: RoutingResult,
) -> list[Violation]:
    """All routing-domain violations (empty for a valid routing)."""
    violations: list[Violation] = []
    _check_coverage(schedule, routing, violations)
    _check_connectivity(routing, violations)
    block_cells = {
        cid: frozenset(placement.block(cid).cells())
        for cid in placement.components()
    }
    _check_obstacles(placement, block_cells, routing, violations)
    _check_endpoints(block_cells, routing, violations)
    _check_occupations(routing, violations)
    return violations


# ----------------------------------------------------------------------
# RTE-COVERAGE
# ----------------------------------------------------------------------
def _check_coverage(
    schedule: Schedule, routing: RoutingResult, violations: list[Violation]
) -> None:
    expected = {
        f"tk{index}"
        for index, movement in enumerate(schedule.movements)
        if not movement.in_place
    }
    routed = Counter(path.task.task_id for path in routing.paths)
    for task_id, count in sorted(routed.items()):
        if count > 1:
            violations.append(
                Violation.of(
                    "RTE-COVERAGE",
                    f"task {task_id} was routed {count} times",
                    task_id,
                )
            )
    for task_id in sorted(expected - set(routed)):
        violations.append(
            Violation.of(
                "RTE-COVERAGE",
                f"transport task {task_id} was never routed",
                task_id,
            )
        )
    for task_id in sorted(set(routed) - expected):
        violations.append(
            Violation.of(
                "RTE-COVERAGE",
                f"routed task {task_id} corresponds to no physical fluid "
                "movement of the schedule",
                task_id,
            )
        )


# ----------------------------------------------------------------------
# RTE-CONNECTIVITY
# ----------------------------------------------------------------------
def _check_connectivity(
    routing: RoutingResult, violations: list[Violation]
) -> None:
    for path in routing.paths:
        task_id = path.task.task_id
        if not path.cells:
            violations.append(
                Violation.of(
                    "RTE-CONNECTIVITY",
                    f"task {task_id} has an empty path",
                    task_id,
                )
            )
            continue
        for a, b in zip(path.cells, path.cells[1:]):
            if abs(a.x - b.x) + abs(a.y - b.y) != 1:
                violations.append(
                    Violation.of(
                        "RTE-CONNECTIVITY",
                        f"task {task_id}: consecutive path cells "
                        f"({a.x},{a.y}) and ({b.x},{b.y}) are not "
                        "orthogonal neighbours",
                        task_id,
                        f"({a.x},{a.y})",
                        f"({b.x},{b.y})",
                    )
                )
        revisited = [
            cell for cell, count in Counter(path.cells).items() if count > 1
        ]
        for cell in sorted(revisited):
            violations.append(
                Violation.of(
                    "RTE-CONNECTIVITY",
                    f"task {task_id} visits cell ({cell.x},{cell.y}) more "
                    "than once",
                    task_id,
                    f"({cell.x},{cell.y})",
                )
            )


# ----------------------------------------------------------------------
# RTE-OBSTACLE
# ----------------------------------------------------------------------
def _check_obstacles(
    placement: Placement,
    block_cells: dict[str, frozenset[Cell]],
    routing: RoutingResult,
    violations: list[Violation],
) -> None:
    grid = placement.grid
    covered: dict[Cell, str] = {}
    for cid, cells in block_cells.items():
        for cell in cells:
            covered[cell] = cid
    for path in routing.paths:
        task_id = path.task.task_id
        for cell in path.cells:
            if not (0 <= cell.x < grid.width and 0 <= cell.y < grid.height):
                violations.append(
                    Violation.of(
                        "RTE-OBSTACLE",
                        f"task {task_id} leaves the {grid.width}x"
                        f"{grid.height} chip at ({cell.x},{cell.y})",
                        task_id,
                        f"({cell.x},{cell.y})",
                    )
                )
            elif cell in covered:
                violations.append(
                    Violation.of(
                        "RTE-OBSTACLE",
                        f"task {task_id} routes through cell "
                        f"({cell.x},{cell.y}), which is covered by "
                        f"component {covered[cell]}",
                        task_id,
                        f"({cell.x},{cell.y})",
                        covered[cell],
                    )
                )


# ----------------------------------------------------------------------
# RTE-ENDPOINTS
# ----------------------------------------------------------------------
def _distance_to_block(cell: Cell, cells: frozenset[Cell]) -> int:
    return min(abs(cell.x - c.x) + abs(cell.y - c.y) for c in cells)


def _check_endpoints(
    block_cells: dict[str, frozenset[Cell]],
    routing: RoutingResult,
    violations: list[Violation],
) -> None:
    for path in routing.paths:
        if not path.cells:
            continue  # RTE-CONNECTIVITY owns empty paths
        task = path.task
        src = block_cells.get(task.src_component)
        dst = block_cells.get(task.dst_component)
        if src is None or dst is None:
            continue  # PLC-COVERAGE owns unplaced components
        if task.src_component == task.dst_component:
            # Self-loop: the plug waits on a channel cell beside the
            # component (a neighbour of one of its ports).
            for cell in (path.cells[0], path.cells[-1]):
                distance = _distance_to_block(cell, src)
                if distance > _SELF_LOOP_DISTANCE:
                    violations.append(
                        Violation.of(
                            "RTE-ENDPOINTS",
                            f"task {task.task_id} caches at "
                            f"({cell.x},{cell.y}), {distance} cells away "
                            f"from its component {task.src_component}",
                            task.task_id,
                            task.src_component,
                        )
                    )
            continue
        # Distance 0 means the endpoint sits inside the block, which is
        # RTE-OBSTACLE's finding; this rule only flags detached ends.
        first, last = path.cells[0], path.cells[-1]
        if _distance_to_block(first, src) > _ATTACH_DISTANCE:
            violations.append(
                Violation.of(
                    "RTE-ENDPOINTS",
                    f"task {task.task_id} starts at ({first.x},{first.y}), "
                    f"which is not adjacent to its source component "
                    f"{task.src_component}",
                    task.task_id,
                    task.src_component,
                )
            )
        if _distance_to_block(last, dst) > _ATTACH_DISTANCE:
            violations.append(
                Violation.of(
                    "RTE-ENDPOINTS",
                    f"task {task.task_id} ends at ({last.x},{last.y}), "
                    f"which is not adjacent to its destination component "
                    f"{task.dst_component}",
                    task.task_id,
                    task.dst_component,
                )
            )


# ----------------------------------------------------------------------
# RTE-CONFLICT / RTE-COMMIT (per-cell occupations)
# ----------------------------------------------------------------------
def _slots_overlap(
    a: tuple[float, float], b: tuple[float, float]
) -> bool:
    """Eq. 5 interval intersection, rewritten locally: half-open slots
    with epsilon joints; zero-length probes never conflict."""
    if a[1] - a[0] <= EPSILON or b[1] - b[0] <= EPSILON:
        return False
    return a[0] < b[1] - EPSILON and b[0] < a[1] - EPSILON


def _check_occupations(
    routing: RoutingResult, violations: list[Violation]
) -> None:
    usage: dict[Cell, list[tuple[str, tuple[float, float]]]] = {}
    for path in routing.paths:
        for cell, slot in zip(path.cells, path.occupations):
            usage.setdefault(cell, []).append(
                (path.task.task_id, (slot.start, slot.end))
            )

    # RTE-CONFLICT: pairwise-disjoint occupations per cell.
    for cell in sorted(usage):
        events = usage[cell]
        for i, (first_id, a) in enumerate(events):
            for second_id, b in events[i + 1:]:
                if _slots_overlap(a, b):
                    violations.append(
                        Violation.of(
                            "RTE-CONFLICT",
                            f"cell ({cell.x},{cell.y}): tasks "
                            f"{first_id} [{a[0]:g}, {a[1]:g}) and "
                            f"{second_id} [{b[0]:g}, {b[1]:g}) occupy "
                            "it at the same time (Eq. 5)",
                            f"({cell.x},{cell.y})",
                            first_id,
                            second_id,
                        )
                    )

    # RTE-COMMIT: one occupation per path cell, each within its task's
    # transport+storage window.
    for path in routing.paths:
        task_id = path.task.task_id
        if len(path.occupations) != len(path.cells):
            violations.append(
                Violation.of(
                    "RTE-COMMIT",
                    f"task {task_id} records {len(path.occupations)} "
                    f"occupations for its {len(path.cells)} path cells",
                    task_id,
                )
            )
        window_start = path.task.depart + path.postponement
        window_end = path.task.consume + path.postponement
        for cell, slot in zip(path.cells, path.occupations):
            if (
                slot.start < window_start - EPSILON
                or slot.end > window_end + EPSILON
            ):
                violations.append(
                    Violation.of(
                        "RTE-COMMIT",
                        f"cell ({cell.x},{cell.y}): occupation "
                        f"[{slot.start:g}, {slot.end:g}) of {task_id} "
                        f"leaves the task's window "
                        f"[{window_start:g}, {window_end:g}]",
                        f"({cell.x},{cell.y})",
                        task_id,
                    )
                )
