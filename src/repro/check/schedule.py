"""Independent design-rule checks of a finished schedule.

Audits a :class:`~repro.schedule.schedule.Schedule` against the problem
inputs (assay, allocation, ``t_c``) from first principles — none of the
scheduling engine's bookkeeping (:class:`ComponentState`, resident-fluid
state machines) is consulted.  These rules are the only definition of a
valid schedule: both flows run them inline on every schedule through
:func:`repro.schedule.validate.validate_schedule`, which raises on any
error-severity violation, and ``check=report|strict`` reports them.

Emitted rules: ``SCH-COVERAGE``, ``SCH-BINDING``, ``SCH-DURATION``,
``SCH-PRECEDENCE``, ``SCH-EXCLUSIVITY``, ``SCH-MOVEMENT``,
``SCH-STORAGE``, ``SCH-WASH``.

Each rule reports its own violations and deliberately *skips* situations
owned by another rule (an unscheduled operation is a ``SCH-COVERAGE``
problem; the movement checks do not pile on secondary complaints about
it), so one seeded defect fires one rule — the property the
fault-injection matrix in ``tests/check`` asserts.
"""

from __future__ import annotations

from collections import Counter, defaultdict

from repro.assay.graph import SequencingGraph
from repro.check.report import Violation
from repro.components.allocation import Allocation
from repro.schedule.schedule import Schedule, ScheduledOperation
from repro.units import EPSILON, Seconds

__all__ = ["check_schedule"]


def _ge(a: float, b: float) -> bool:
    return a >= b - EPSILON


def _eq(a: float, b: float) -> bool:
    return abs(a - b) <= EPSILON


def check_schedule(
    assay: SequencingGraph,
    allocation: Allocation,
    transport_time: Seconds,
    schedule: Schedule,
) -> list[Violation]:
    """All schedule-domain violations (empty for a valid schedule)."""
    violations: list[Violation] = []
    component_types = dict(allocation.iter_components())
    expected_ops = set(assay.operation_ids)
    scheduled_ops = set(schedule.operations)

    _check_coverage(expected_ops, scheduled_ops, violations)
    _check_bindings_and_durations(
        assay, component_types, schedule, expected_ops & scheduled_ops, violations
    )
    _check_precedence(assay, schedule, violations)
    _check_exclusivity(schedule, violations)
    _check_movements(assay, schedule, violations)
    _check_storage_timelines(transport_time, schedule, violations)
    _check_wash_gaps(assay, component_types, schedule, violations)
    return violations


# ----------------------------------------------------------------------
# SCH-COVERAGE
# ----------------------------------------------------------------------
def _check_coverage(
    expected: set[str], scheduled: set[str], violations: list[Violation]
) -> None:
    for op_id in sorted(expected - scheduled):
        violations.append(
            Violation.of(
                "SCH-COVERAGE",
                f"assay operation {op_id} was never scheduled",
                op_id,
            )
        )
    for op_id in sorted(scheduled - expected):
        violations.append(
            Violation.of(
                "SCH-COVERAGE",
                f"scheduled operation {op_id} does not exist in the assay",
                op_id,
            )
        )


# ----------------------------------------------------------------------
# SCH-BINDING / SCH-DURATION
# ----------------------------------------------------------------------
def _check_bindings_and_durations(
    assay: SequencingGraph,
    component_types: dict,
    schedule: Schedule,
    op_ids: set[str],
    violations: list[Violation],
) -> None:
    for op_id in sorted(op_ids):
        record = schedule.operations[op_id]
        op = assay.operation(op_id)
        bound_type = component_types.get(record.component_id)
        if bound_type is None:
            violations.append(
                Violation.of(
                    "SCH-BINDING",
                    f"operation {op_id} bound to {record.component_id!r}, "
                    "which is not an allocated component",
                    op_id,
                    record.component_id,
                )
            )
        elif bound_type is not op.op_type:
            violations.append(
                Violation.of(
                    "SCH-BINDING",
                    f"operation {op_id} needs a {op.op_type.value} but is "
                    f"bound to {record.component_id}, a {bound_type.value}",
                    op_id,
                    record.component_id,
                )
            )
        if not _eq(record.end - record.start, op.duration):
            violations.append(
                Violation.of(
                    "SCH-DURATION",
                    f"operation {op_id} scheduled for "
                    f"{record.end - record.start:g} s, the assay specifies "
                    f"{op.duration:g} s",
                    op_id,
                )
            )


# ----------------------------------------------------------------------
# SCH-PRECEDENCE (graph edges and movement departures)
# ----------------------------------------------------------------------
def _check_precedence(
    assay: SequencingGraph, schedule: Schedule, violations: list[Violation]
) -> None:
    for parent, child in assay.edges:
        parent_rec = schedule.operations.get(parent)
        child_rec = schedule.operations.get(child)
        if parent_rec is None or child_rec is None:
            continue  # SCH-COVERAGE owns unscheduled endpoints
        if not _ge(child_rec.start, parent_rec.end):
            violations.append(
                Violation.of(
                    "SCH-PRECEDENCE",
                    f"{child} starts at {child_rec.start:g} s although its "
                    f"parent {parent} only finishes at {parent_rec.end:g} s",
                    parent,
                    child,
                )
            )
    for movement in schedule.movements:
        producer_rec = schedule.operations.get(movement.producer)
        if producer_rec is None:
            continue
        if not _ge(movement.depart, producer_rec.end):
            violations.append(
                Violation.of(
                    "SCH-PRECEDENCE",
                    f"fluid of {movement.producer} departs at "
                    f"{movement.depart:g} s before the producer finishes at "
                    f"{producer_rec.end:g} s",
                    movement.producer,
                    movement.consumer,
                )
            )


# ----------------------------------------------------------------------
# SCH-EXCLUSIVITY
# ----------------------------------------------------------------------
def _records_by_component(
    schedule: Schedule,
) -> dict[str, list[ScheduledOperation]]:
    grouped: dict[str, list[ScheduledOperation]] = defaultdict(list)
    for record in schedule.operations.values():
        grouped[record.component_id].append(record)
    for records in grouped.values():
        records.sort(key=lambda rec: (rec.start, rec.op_id))
    return grouped


def _check_exclusivity(
    schedule: Schedule, violations: list[Violation]
) -> None:
    # Sorted by start time, any overlap manifests between neighbours.
    for cid, records in sorted(_records_by_component(schedule).items()):
        for earlier, later in zip(records, records[1:]):
            if not _ge(later.start, earlier.end):
                violations.append(
                    Violation.of(
                        "SCH-EXCLUSIVITY",
                        f"component {cid} runs {earlier.op_id} "
                        f"[{earlier.start:g}, {earlier.end:g}] and "
                        f"{later.op_id} [{later.start:g}, {later.end:g}] "
                        "at the same time",
                        cid,
                        earlier.op_id,
                        later.op_id,
                    )
                )


# ----------------------------------------------------------------------
# SCH-MOVEMENT (edge service and endpoint bindings)
# ----------------------------------------------------------------------
def _check_movements(
    assay: SequencingGraph, schedule: Schedule, violations: list[Violation]
) -> None:
    edge_set = set(assay.edges)
    served: Counter = Counter()
    for movement in schedule.movements:
        served[(movement.producer, movement.consumer)] += 1
        producer_rec = schedule.operations.get(movement.producer)
        consumer_rec = schedule.operations.get(movement.consumer)
        if (
            producer_rec is not None
            and movement.src_component != producer_rec.component_id
        ):
            violations.append(
                Violation.of(
                    "SCH-MOVEMENT",
                    f"movement {movement.producer}->{movement.consumer} "
                    f"leaves from {movement.src_component}, but the producer "
                    f"ran on {producer_rec.component_id}",
                    movement.producer,
                    movement.consumer,
                )
            )
        if (
            consumer_rec is not None
            and movement.dst_component != consumer_rec.component_id
        ):
            violations.append(
                Violation.of(
                    "SCH-MOVEMENT",
                    f"movement {movement.producer}->{movement.consumer} "
                    f"targets {movement.dst_component}, but the consumer "
                    f"ran on {consumer_rec.component_id}",
                    movement.producer,
                    movement.consumer,
                )
            )
    for edge in assay.edges:
        producer, consumer = edge
        if (
            producer not in schedule.operations
            or consumer not in schedule.operations
        ):
            continue  # SCH-COVERAGE owns unscheduled endpoints
        count = served.get(edge, 0)
        if count != 1:
            violations.append(
                Violation.of(
                    "SCH-MOVEMENT",
                    f"edge {producer}->{consumer} is served by {count} "
                    "movements, expected exactly 1",
                    producer,
                    consumer,
                )
            )
    for key in sorted(served):
        if key not in edge_set:
            violations.append(
                Violation.of(
                    "SCH-MOVEMENT",
                    f"movement {key[0]}->{key[1]} serves no sequencing-graph "
                    "edge",
                    *key,
                )
            )


# ----------------------------------------------------------------------
# SCH-STORAGE (the 'transport or store' timeline of every movement)
# ----------------------------------------------------------------------
def _check_storage_timelines(
    transport_time: Seconds, schedule: Schedule, violations: list[Violation]
) -> None:
    for movement in schedule.movements:
        who = f"movement {movement.producer}->{movement.consumer}"
        entities = (movement.producer, movement.consumer)
        expected_travel = 0.0 if movement.in_place else transport_time
        travel = movement.arrive - movement.depart
        if not _eq(travel, expected_travel):
            violations.append(
                Violation.of(
                    "SCH-STORAGE",
                    f"{who} travels for {travel:g} s, expected "
                    f"{expected_travel:g} s",
                    *entities,
                )
            )
        if movement.consume < movement.arrive - EPSILON:
            violations.append(
                Violation.of(
                    "SCH-STORAGE",
                    f"{who} is consumed at {movement.consume:g} s before it "
                    f"arrives at {movement.arrive:g} s",
                    *entities,
                )
            )
        if movement.in_place and movement.src_component != movement.dst_component:
            violations.append(
                Violation.of(
                    "SCH-STORAGE",
                    f"{who} is flagged in-place yet spans "
                    f"{movement.src_component} -> {movement.dst_component}",
                    *entities,
                )
            )
        consumer_rec = schedule.operations.get(movement.consumer)
        if consumer_rec is not None and not _eq(
            movement.consume, consumer_rec.start
        ):
            violations.append(
                Violation.of(
                    "SCH-STORAGE",
                    f"{who} is consumed at {movement.consume:g} s, but the "
                    f"consumer starts at {consumer_rec.start:g} s",
                    *entities,
                )
            )


# ----------------------------------------------------------------------
# SCH-WASH (Eq. 2 replay from the movements alone)
# ----------------------------------------------------------------------
def _final_departures(
    schedule: Schedule,
) -> tuple[dict[str, float], dict[str, bool]]:
    """Per producer: when its output fully left, and whether that final
    departure was an in-place consumption (ties prefer in-place — a
    simultaneous in-place consumption eats the residue, so no wash)."""
    leave_time: dict[str, float] = {}
    leave_in_place: dict[str, bool] = {}
    for movement in schedule.movements:
        current = leave_time.get(movement.producer)
        if current is None or movement.depart > current + EPSILON:
            leave_time[movement.producer] = movement.depart
            leave_in_place[movement.producer] = movement.in_place
        elif _eq(movement.depart, current) and movement.in_place:
            leave_in_place[movement.producer] = True
    return leave_time, leave_in_place


def _check_wash_gaps(
    assay: SequencingGraph,
    component_types: dict,
    schedule: Schedule,
    violations: list[Violation],
) -> None:
    known_ops = set(assay.operation_ids)
    leave_time, leave_in_place = _final_departures(schedule)
    grouped = _records_by_component(schedule)
    for cid in sorted(component_types):
        records = grouped.get(cid, [])
        for earlier, later in zip(records, records[1:]):
            if not _ge(later.start, earlier.end):
                continue  # SCH-EXCLUSIVITY owns overlapping pairs
            if earlier.op_id not in known_ops:
                continue  # SCH-COVERAGE owns phantom operations
            op = assay.operation(earlier.op_id)
            if not assay.children(earlier.op_id):
                # Sink output: collected through the outlet when the
                # operation ends; the wash is always owed.
                departed, in_place = earlier.end, False
            elif earlier.op_id not in leave_time:
                continue  # SCH-MOVEMENT owns the missing movement
            else:
                departed = leave_time[earlier.op_id]
                in_place = leave_in_place[earlier.op_id]
            required = departed if in_place else departed + op.wash_time
            if not _ge(later.start, required):
                violations.append(
                    Violation.of(
                        "SCH-WASH",
                        f"component {cid}: {later.op_id} starts at "
                        f"{later.start:g} s, but the residue of "
                        f"{earlier.op_id} is only washed away by "
                        f"{required:g} s (Eq. 2)",
                        cid,
                        earlier.op_id,
                        later.op_id,
                    )
                )
