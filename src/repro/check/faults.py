"""Deterministic fault injection against valid synthesis results.

The checker in :mod:`repro.check` is only trustworthy if every rule in
its catalogue demonstrably *fires* on a broken solution and stays silent
otherwise.  This module perturbs a valid
:class:`~repro.core.solution.SynthesisResult` in targeted ways — shift a
departure, overlap two blocks, reroute through an occupied cell, corrupt
a reported metric, drop a wash gap — and :func:`inject` returns a
corrupted copy on which exactly the requested rule fires.

Each rule has a *candidate generator* yielding deterministic corruption
attempts (one seeded defect per candidate).  ``inject`` audits each
candidate with :func:`~repro.check.check_result` and returns the first
whose fired rule set is exactly ``{rule_id}``; candidates whose defect
happens to cascade into a second rule on this particular solution are
discarded, and if no surgical candidate exists a
:class:`FaultInjectionError` is raised — which fails the fault-matrix
test, so checker *sensitivity* is never silently lost.

Corruptions are applied to deep copies.  Frozen models are bypassed
deliberately (``object.__setattr__``, copying a
:class:`~repro.route.paths.RoutedPath` around its connectivity and
occupation-count validation): faults must be able to represent exactly
the illegal states the constructors refuse, otherwise the checker could
never be exercised on them.  A routed path is the whole routing record
(its cells and their occupations), so routing faults edit only paths.
After corrupting schedule or routing artefacts the reported metrics are
*re-derived the way the pipeline derives them* ("laundered"),
so the metrics checker — which recomputes from the same artefacts —
stays silent and the seeded rule alone identifies the defect.

Input-rule faults (``INP-*``) corrupt the *problem* rather than a
solution: :data:`INPUT_FAULT_BUILDERS` builds small assay/allocation
pairs violating one input rule each, audited via
:func:`~repro.assay.validation.validate_assay`.
"""

from __future__ import annotations

import copy
from dataclasses import replace
from typing import Callable, Iterator

from repro.assay.graph import Operation, OperationType, SequencingGraph
from repro.check import check_result
from repro.check.report import Severity
from repro.components.allocation import Allocation
from repro.core.metrics import compute_metrics
from repro.core.solution import SynthesisResult
from repro.errors import ReproError
from repro.place.grid import Cell, ChipGrid
from repro.place.placement import PlacedComponent
from repro.route.paths import RoutedPath
from repro.route.timeslots import TimeSlot
from repro.schedule.schedule import Schedule, ScheduledOperation

__all__ = [
    "FaultInjectionError",
    "inject",
    "fired_error_rules",
    "solution_fault_rules",
    "input_fault_rules",
    "build_input_fault",
    "INPUT_FAULT_BUILDERS",
]

#: Margin used when a corruption must clear the checker's epsilon.
_MARGIN = 1e-3


class FaultInjectionError(ReproError):
    """No candidate corruption made exactly the requested rule fire."""


# ----------------------------------------------------------------------
# Low-level corruption helpers
# ----------------------------------------------------------------------
def _set(obj, **fields) -> None:
    """Overwrite fields of a frozen instance in place."""
    for key, value in fields.items():
        object.__setattr__(obj, key, value)


def _fresh(result: SynthesisResult) -> SynthesisResult:
    return copy.deepcopy(result)


def _launder(result: SynthesisResult) -> SynthesisResult:
    """Re-derive the reported metrics from the (corrupted) artefacts.

    Mirrors what the pipeline would report for these artefacts, so the
    metrics checker's recomputation agrees and only the seeded rule
    fires.  When the corruption breaks metric derivation itself the old
    report is kept — the rule owning the corruption fires either way.
    """
    try:
        metrics = compute_metrics(
            result.schedule, result.routing, cpu_time=result.metrics.cpu_time
        )
    except Exception:
        return result
    _set(result, metrics=metrics)
    return result


def _raw_path(path: RoutedPath, **fields) -> RoutedPath:
    """A copy of *path* with *fields* replaced, skipping the
    constructor's connectivity and occupation-count checks."""
    raw = copy.copy(path)
    _set(raw, **fields)
    return raw


def _records_by_component(schedule: Schedule) -> dict[str, list]:
    grouped: dict[str, list] = {}
    for record in schedule.operations.values():
        grouped.setdefault(record.component_id, []).append(record)
    for records in grouped.values():
        records.sort(key=lambda rec: (rec.start, rec.op_id))
    return grouped


def _path_cells(result: SynthesisResult) -> set[Cell]:
    return {cell for path in result.routing.paths for cell in path.cells}


def _rebind(schedule: Schedule, op_id: str, cid: str) -> None:
    """Rebind one operation and keep its movements' endpoints matching."""
    record = schedule.operations[op_id]
    schedule.operations[op_id] = ScheduledOperation(
        op_id=op_id, component_id=cid, start=record.start, end=record.end
    )
    for index, movement in enumerate(schedule.movements):
        fields = {}
        if movement.producer == op_id:
            fields["src_component"] = cid
        if movement.consumer == op_id:
            fields["dst_component"] = cid
        if fields:
            schedule.movements[index] = replace(movement, **fields)


def _has_in_place_movement(schedule: Schedule, op_id: str) -> bool:
    return any(
        m.in_place and (m.producer == op_id or m.consumer == op_id)
        for m in schedule.movements
    )


# ----------------------------------------------------------------------
# Candidate-generator registry
# ----------------------------------------------------------------------
Generator = Callable[[SynthesisResult], Iterator[SynthesisResult]]
_SOLUTION_FAULTS: dict[str, Generator] = {}


def _solution_fault(rule_id: str):
    def register(fn: Generator) -> Generator:
        _SOLUTION_FAULTS[rule_id] = fn
        return fn

    return register


def solution_fault_rules() -> list[str]:
    """Rule ids with a registered solution-corruption generator."""
    return sorted(_SOLUTION_FAULTS)


def fired_error_rules(report) -> set[str]:
    """Error-severity rule ids that fired in *report* (warnings — e.g.
    ``INP-DURATION`` — do not disturb surgical-fault verification)."""
    return {
        v.rule_id for v in report.violations if v.severity is Severity.ERROR
    }


def inject(result: SynthesisResult, rule_id: str) -> SynthesisResult:
    """A corrupted deep copy of *result* on which exactly *rule_id* fires.

    Raises :class:`FaultInjectionError` when the rule has no generator or
    no candidate corruption is surgical on this particular solution.
    """
    generator = _SOLUTION_FAULTS.get(rule_id)
    if generator is None:
        raise FaultInjectionError(
            f"no fault generator registered for rule {rule_id!r}"
        )
    tried = 0
    seen: set[str] = set()
    for candidate in generator(result):
        tried += 1
        fired = fired_error_rules(check_result(candidate))
        if fired == {rule_id}:
            return candidate
        seen.update(fired)
    raise FaultInjectionError(
        f"no surgical corruption for {rule_id!r} on this solution "
        f"({tried} candidates tried, rules seen: {sorted(seen)})"
    )


# ----------------------------------------------------------------------
# Schedule faults
# ----------------------------------------------------------------------
@_solution_fault("SCH-COVERAGE")
def _drop_operation(result: SynthesisResult) -> Iterator[SynthesisResult]:
    for op_id in sorted(result.schedule.operations):
        candidate = _fresh(result)
        del candidate.schedule.operations[op_id]
        yield _launder(candidate)


@_solution_fault("SCH-BINDING")
def _bind_wrong_type(result: SynthesisResult) -> Iterator[SynthesisResult]:
    types = dict(result.problem.allocation.iter_components())
    schedule = result.schedule
    for op_id in sorted(schedule.operations):
        if _has_in_place_movement(schedule, op_id):
            continue
        record = schedule.operations[op_id]
        op_type = types.get(record.component_id)
        for cid in sorted(types):
            if types[cid] is op_type:
                continue
            candidate = _fresh(result)
            _rebind(candidate.schedule, op_id, cid)
            yield _launder(candidate)


@_solution_fault("SCH-DURATION")
def _stretch_final_operation(
    result: SynthesisResult,
) -> Iterator[SynthesisResult]:
    schedule = result.schedule
    grouped = _records_by_component(schedule)
    for op_id in sorted(schedule.operations):
        record = schedule.operations[op_id]
        if schedule.assay.children(op_id):
            continue  # a stretched producer would also fire SCH-PRECEDENCE
        if grouped[record.component_id][-1] is not record:
            continue  # stretching a non-final record would hit exclusivity
        candidate = _fresh(result)
        candidate.schedule.operations[op_id] = ScheduledOperation(
            op_id=op_id,
            component_id=record.component_id,
            start=record.start,
            end=record.end + 7.5,
        )
        yield _launder(candidate)


@_solution_fault("SCH-PRECEDENCE")
def _depart_before_producer(
    result: SynthesisResult,
) -> Iterator[SynthesisResult]:
    schedule = result.schedule
    for index, movement in enumerate(schedule.movements):
        if movement.in_place:
            continue
        producer = schedule.operations.get(movement.producer)
        if producer is None:
            continue
        new_depart = producer.end - 0.6
        shift = movement.depart - new_depart
        if shift <= _MARGIN:
            continue
        candidate = _fresh(result)
        target = candidate.schedule.movements[index]
        candidate.schedule.movements[index] = replace(
            target, depart=new_depart, arrive=target.arrive - shift
        )
        yield _launder(candidate)


@_solution_fault("SCH-EXCLUSIVITY")
def _double_book_component(
    result: SynthesisResult,
) -> Iterator[SynthesisResult]:
    types = dict(result.problem.allocation.iter_components())
    schedule = result.schedule
    for op_id in sorted(schedule.operations):
        if _has_in_place_movement(schedule, op_id):
            continue
        record = schedule.operations[op_id]
        op_type = types.get(record.component_id)
        for cid in sorted(types):
            if cid == record.component_id or types[cid] is not op_type:
                continue
            overlapping = any(
                other.component_id == cid
                and other.start < record.end - _MARGIN
                and record.start < other.end - _MARGIN
                for other in schedule.operations.values()
            )
            if not overlapping:
                continue
            candidate = _fresh(result)
            _rebind(candidate.schedule, op_id, cid)
            yield _launder(candidate)


@_solution_fault("SCH-MOVEMENT")
def _wrong_source_component(
    result: SynthesisResult,
) -> Iterator[SynthesisResult]:
    schedule = result.schedule
    cids = sorted(
        cid for cid, _ in result.problem.allocation.iter_components()
    )
    for index, movement in enumerate(schedule.movements):
        if movement.in_place:
            continue
        producer = schedule.operations.get(movement.producer)
        if producer is None:
            continue
        for cid in cids:
            if cid == producer.component_id:
                continue
            candidate = _fresh(result)
            target = candidate.schedule.movements[index]
            candidate.schedule.movements[index] = replace(
                target, src_component=cid
            )
            yield _launder(candidate)


@_solution_fault("SCH-STORAGE")
def _short_transport(result: SynthesisResult) -> Iterator[SynthesisResult]:
    schedule = result.schedule
    t_c = schedule.transport_time
    if t_c <= _MARGIN:
        return
    for index, movement in enumerate(schedule.movements):
        if movement.in_place:
            continue
        candidate = _fresh(result)
        target = candidate.schedule.movements[index]
        candidate.schedule.movements[index] = replace(
            target, arrive=target.depart + t_c / 2
        )
        yield _launder(candidate)


@_solution_fault("SCH-WASH")
def _late_departure_over_wash(
    result: SynthesisResult,
) -> Iterator[SynthesisResult]:
    schedule = result.schedule
    t_c = schedule.transport_time
    grouped = _records_by_component(schedule)
    for index, movement in enumerate(schedule.movements):
        if movement.in_place:
            continue
        producer = schedule.operations.get(movement.producer)
        if producer is None:
            continue
        wash = movement.fluid.wash_time
        if wash <= _MARGIN:
            continue
        records = grouped.get(producer.component_id, [])
        following = [
            rec
            for rec in records
            if (rec.start, rec.op_id) > (producer.start, producer.op_id)
        ]
        if not following:
            continue
        nxt = following[0]
        # Latest admissible departure: arrival must not pass consumption.
        new_depart = movement.consume - t_c
        if new_depart <= movement.depart + _MARGIN:
            continue  # cannot move later: the fluid was never cached
        if new_depart + wash <= nxt.start + _MARGIN:
            continue  # even the latest departure respects Eq. 2
        candidate = _fresh(result)
        target = candidate.schedule.movements[index]
        candidate.schedule.movements[index] = replace(
            target, depart=new_depart, arrive=new_depart + t_c
        )
        yield _launder(candidate)


# ----------------------------------------------------------------------
# Placement faults
# ----------------------------------------------------------------------
@_solution_fault("PLC-COVERAGE")
def _forget_block(result: SynthesisResult) -> Iterator[SynthesisResult]:
    for cid in result.placement.components():
        candidate = _fresh(result)
        del candidate.placement._blocks[cid]
        yield _launder(candidate)
    # Fallback: a ghost block on a clearance-respecting free cell.
    placement = result.placement
    grid = placement.grid
    blocked = placement.occupied_cells()
    paths = _path_cells(result)
    ghosts = 0
    for y in range(grid.height):
        for x in range(grid.width):
            cell = Cell(x, y)
            if cell in paths:
                continue
            near_block = any(
                Cell(x + dx, y + dy) in blocked
                for dx in (-1, 0, 1)
                for dy in (-1, 0, 1)
            )
            if near_block:
                continue
            candidate = _fresh(result)
            candidate.placement._blocks["Ghost1"] = PlacedComponent(
                "Ghost1", x, y, 1, 1
            )
            yield _launder(candidate)
            ghosts += 1
            if ghosts >= 5:
                return


@_solution_fault("PLC-FOOTPRINT")
def _resize_block(result: SynthesisResult) -> Iterator[SynthesisResult]:
    for cid in result.placement.components():
        block = result.placement.block(cid)
        variants = [
            (block.width + 1, block.height),
            (block.width, block.height + 1),
        ]
        if block.width > 1:
            variants.append((block.width - 1, block.height))
        if block.height > 1:
            variants.append((block.width, block.height - 1))
        for width, height in variants:
            candidate = _fresh(result)
            candidate.placement._blocks[cid] = PlacedComponent(
                cid, block.x, block.y, width, height
            )
            yield _launder(candidate)


@_solution_fault("PLC-BOUNDS")
def _leave_the_chip(result: SynthesisResult) -> Iterator[SynthesisResult]:
    placement = result.placement
    grid = placement.grid
    for cid in placement.components():
        block = placement.block(cid)
        shifts = []
        if block.x == 0:
            shifts.append((-1, 0))
        if block.y == 0:
            shifts.append((0, -1))
        if block.x + block.width == grid.width:
            shifts.append((1, 0))
        if block.y + block.height == grid.height:
            shifts.append((0, 1))
        for dx, dy in shifts:
            candidate = _fresh(result)
            candidate.placement._blocks[cid] = PlacedComponent(
                cid, block.x + dx, block.y + dy, block.width, block.height
            )
            yield _launder(candidate)
    # Fallback: shrink the problem's chip under the placement.
    candidate = _fresh(result)
    smaller = ChipGrid(
        width=max(1, grid.width - 1),
        height=max(1, grid.height - 1),
        pitch_mm=grid.pitch_mm,
    )
    _set(candidate.problem, grid=smaller)
    yield candidate


@_solution_fault("PLC-SPACING")
def _press_blocks_together(
    result: SynthesisResult,
) -> Iterator[SynthesisResult]:
    placement = result.placement
    grid = placement.grid
    blocks = placement.blocks()
    paths = _path_cells(result)
    for block in blocks:
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            moved = PlacedComponent(
                block.cid, block.x + dx, block.y + dy, block.width, block.height
            )
            if (
                moved.x < 0
                or moved.y < 0
                or moved.x + moved.width > grid.width
                or moved.y + moved.height > grid.height
            ):
                continue
            if not any(
                moved.overlaps(other, spacing=1)
                for other in blocks
                if other.cid != block.cid
            ):
                continue
            freshly_covered = set(moved.cells()) - set(block.cells())
            if freshly_covered & paths:
                continue  # would also fire RTE-OBSTACLE
            candidate = _fresh(result)
            candidate.placement._blocks[block.cid] = moved
            yield _launder(candidate)


# ----------------------------------------------------------------------
# Routing faults
# ----------------------------------------------------------------------
@_solution_fault("RTE-COVERAGE")
def _lose_a_path(result: SynthesisResult) -> Iterator[SynthesisResult]:
    for index in range(len(result.routing.paths)):
        candidate = _fresh(result)
        candidate.routing.paths.pop(index)
        yield _launder(candidate)


@_solution_fault("RTE-CONNECTIVITY")
def _tear_a_path(result: SynthesisResult) -> Iterator[SynthesisResult]:
    for index, path in enumerate(result.routing.paths):
        if len(path.cells) < 3:
            continue
        for middle in range(1, len(path.cells) - 1):
            candidate = _fresh(result)
            cpath = candidate.routing.paths[index]
            candidate.routing.paths[index] = _raw_path(
                cpath,
                cells=cpath.cells[:middle] + cpath.cells[middle + 1:],
                occupations=(
                    cpath.occupations[:middle]
                    + cpath.occupations[middle + 1:]
                ),
            )
            yield _launder(candidate)


@_solution_fault("RTE-OBSTACLE")
def _cut_through_a_block(
    result: SynthesisResult,
) -> Iterator[SynthesisResult]:
    occupied: set[Cell] = result.placement.occupied_cells()
    for index, path in enumerate(result.routing.paths):
        cells = path.cells
        for i in range(len(cells) - 2):
            a, b, c = cells[i], cells[i + 1], cells[i + 2]
            if a.x == c.x or a.y == c.y:
                continue  # straight segment: no alternative corner
            detour = Cell(a.x + c.x - b.x, a.y + c.y - b.y)
            if detour not in occupied or detour in cells:
                continue
            # The detour cell takes over the corner's occupation.
            candidate = _fresh(result)
            cpath = candidate.routing.paths[index]
            candidate.routing.paths[index] = _raw_path(
                cpath, cells=cells[: i + 1] + (detour,) + cells[i + 2:]
            )
            yield _launder(candidate)


@_solution_fault("RTE-ENDPOINTS")
def _detach_endpoints(result: SynthesisResult) -> Iterator[SynthesisResult]:
    placement = result.placement
    occupied = placement.occupied_cells()
    used = _path_cells(result)
    for index, path in enumerate(result.routing.paths):
        task = path.task
        if task.src_component == task.dst_component:
            # Relocate the self-loop cache cell far from its component.
            try:
                home = set(placement.block(task.src_component).cells())
            except Exception:
                continue
            if len(path.cells) != 1:
                continue
            relocations = 0
            for y in range(placement.grid.height):
                for x in range(placement.grid.width):
                    cell = Cell(x, y)
                    if cell in occupied or cell in used:
                        continue
                    distance = min(
                        abs(cell.x - h.x) + abs(cell.y - h.y) for h in home
                    )
                    if distance <= 2:
                        continue
                    candidate = _fresh(result)
                    cpath = candidate.routing.paths[index]
                    candidate.routing.paths[index] = _raw_path(
                        cpath, cells=(cell,)
                    )
                    yield _launder(candidate)
                    relocations += 1
                    if relocations >= 3:
                        break
                if relocations >= 3:
                    break
        else:
            if len(path.cells) < 2:
                continue
            for chop_first in (True, False):
                candidate = _fresh(result)
                cpath = candidate.routing.paths[index]
                kept = slice(1, None) if chop_first else slice(None, -1)
                candidate.routing.paths[index] = _raw_path(
                    cpath,
                    cells=cpath.cells[kept],
                    occupations=cpath.occupations[kept],
                )
                yield _launder(candidate)


@_solution_fault("RTE-CONFLICT")
def _overlap_occupations(
    result: SynthesisResult,
) -> Iterator[SynthesisResult]:
    usage = result.routing.usage_history()
    path_index = {
        path.task.task_id: index
        for index, path in enumerate(result.routing.paths)
    }
    for cell in sorted(usage):
        events = usage[cell]
        if len(events) < 2:
            continue
        for i, anchor in enumerate(events):
            for j, victim in enumerate(events):
                if i == j:
                    continue
                index = path_index[victim.task_id]
                path = result.routing.paths[index]
                window_start = path.task.depart + path.postponement
                window_end = path.task.consume + path.postponement
                lo = max(anchor.slot.start, window_start)
                hi = min(anchor.slot.end, window_end)
                if hi - lo <= 10 * _MARGIN:
                    continue  # no solid overlap fits the victim's window
                candidate = _fresh(result)
                cpath = candidate.routing.paths[index]
                occupations = list(cpath.occupations)
                occupations[cpath.cells.index(cell)] = TimeSlot(lo, hi)
                candidate.routing.paths[index] = _raw_path(
                    cpath, occupations=tuple(occupations)
                )
                yield _launder(candidate)


@_solution_fault("RTE-COMMIT")
def _forget_a_commit(result: SynthesisResult) -> Iterator[SynthesisResult]:
    # Dropping the *last* occupation keeps every other cell paired with
    # its own slot, so no occupation moves onto another cell.
    for index in range(len(result.routing.paths)):
        candidate = _fresh(result)
        cpath = candidate.routing.paths[index]
        candidate.routing.paths[index] = _raw_path(
            cpath, occupations=cpath.occupations[:-1]
        )
        yield _launder(candidate)


# ----------------------------------------------------------------------
# Metrics faults (the report lies about the artefacts)
# ----------------------------------------------------------------------
def _metric_fault(rule_id: str, mutations):
    @_solution_fault(rule_id)
    def corrupt(result: SynthesisResult) -> Iterator[SynthesisResult]:
        for mutate in mutations:
            candidate = _fresh(result)
            _set(candidate, metrics=mutate(candidate))
            yield candidate

    corrupt.__name__ = f"_corrupt_{rule_id.lower().replace('-', '_')}"
    return corrupt


_metric_fault(
    "MET-EXEC",
    [lambda r: replace(r.metrics, execution_time=r.metrics.execution_time + 11.0)],
)
_metric_fault(
    "MET-UTIL",
    [
        lambda r: replace(
            r.metrics,
            resource_utilisation=r.metrics.resource_utilisation + 0.07,
        )
    ],
)
_metric_fault(
    "MET-LENGTH",
    [
        lambda r: replace(
            r.metrics,
            total_channel_length_mm=r.metrics.total_channel_length_mm
            + r.placement.grid.pitch_mm,
        )
    ],
)
_metric_fault(
    "MET-CACHE",
    [lambda r: replace(r.metrics, total_cache_time=r.metrics.total_cache_time + 3.0)],
)
_metric_fault(
    "MET-WASH",
    [
        lambda r: replace(
            r.metrics,
            total_channel_wash_time=r.metrics.total_channel_wash_time + 5.0,
        ),
        lambda r: replace(
            r.metrics,
            total_component_wash_time=r.metrics.total_component_wash_time + 5.0,
        ),
    ],
)
_metric_fault(
    "MET-COUNT",
    [
        lambda r: replace(
            r.metrics, transport_count=r.metrics.transport_count + 1
        ),
        lambda r: replace(
            r.metrics, total_postponement=r.metrics.total_postponement + 1.5
        ),
    ],
)


# ----------------------------------------------------------------------
# Input faults (corrupted problems, audited via validate_assay)
# ----------------------------------------------------------------------
def _op(op_id: str, op_type: OperationType, duration: float = 2.0) -> Operation:
    return Operation(op_id=op_id, op_type=op_type, duration=duration)


def _capacity_fault() -> tuple[SequencingGraph, Allocation]:
    assay = SequencingGraph(
        "inp-capacity",
        [_op("m1", OperationType.MIX), _op("h1", OperationType.HEAT)],
        [("m1", "h1")],
    )
    return assay, Allocation(mixers=1)  # the heater is missing


def _fanin_fault() -> tuple[SequencingGraph, Allocation]:
    assay = SequencingGraph(
        "inp-fanin",
        [
            _op("m1", OperationType.MIX),
            _op("m2", OperationType.MIX),
            _op("m3", OperationType.MIX),
            _op("mx", OperationType.MIX),
        ],
        [("m1", "mx"), ("m2", "mx"), ("m3", "mx")],  # fan-in 3 > 2
    )
    return assay, Allocation(mixers=4)


def _duration_fault() -> tuple[SequencingGraph, Allocation]:
    assay = SequencingGraph(
        "inp-duration",
        [_op("m1", OperationType.MIX, duration=0.0), _op("m2", OperationType.MIX)],
        [("m1", "m2")],
    )
    return assay, Allocation(mixers=2)


class _SinklessView(SequencingGraph):
    """A graph variant whose sink query lies — the only way to exercise
    the INP-SINK guard, which is unreachable for honest DAGs."""

    def sinks(self) -> list[str]:
        return []


def _sink_fault() -> tuple[SequencingGraph, Allocation]:
    assay = _SinklessView(
        "inp-sink",
        [_op("m1", OperationType.MIX), _op("m2", OperationType.MIX)],
        [("m1", "m2")],
    )
    return assay, Allocation(mixers=2)


INPUT_FAULT_BUILDERS: dict[
    str, Callable[[], tuple[SequencingGraph, Allocation]]
] = {
    "INP-CAPACITY": _capacity_fault,
    "INP-FANIN": _fanin_fault,
    "INP-DURATION": _duration_fault,
    "INP-SINK": _sink_fault,
}


def input_fault_rules() -> list[str]:
    """Rule ids with a registered corrupted-problem builder."""
    return sorted(INPUT_FAULT_BUILDERS)


def build_input_fault(rule_id: str) -> tuple[SequencingGraph, Allocation]:
    """The corrupted assay/allocation pair violating exactly *rule_id*."""
    try:
        return INPUT_FAULT_BUILDERS[rule_id]()
    except KeyError:
        raise FaultInjectionError(
            f"no input fault registered for rule {rule_id!r}"
        ) from None
