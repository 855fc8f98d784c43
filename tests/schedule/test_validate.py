"""Unit tests for the inline schedule check (the ``SCH-*`` rules)."""

import pytest

from repro.assay.builder import AssayBuilder
from repro.components.allocation import Allocation
from repro.errors import ValidationError
from repro.schedule.list_scheduler import schedule_assay
from repro.schedule.schedule import Schedule, ScheduledOperation
from repro.schedule.tasks import FluidMovement
from repro.schedule.validate import validate_schedule


def valid_schedule():
    assay = (
        AssayBuilder("t")
        .mix("a", duration=4, wash_time=2.0)
        .mix("b", duration=3, after=["a"], wash_time=1.0)
        .build()
    )
    return schedule_assay(assay, Allocation(mixers=2))


def clone_with(schedule: Schedule, **overrides) -> Schedule:
    fields = dict(
        assay=schedule.assay,
        allocation=schedule.allocation,
        transport_time=schedule.transport_time,
        operations=dict(schedule.operations),
        movements=list(schedule.movements),
        components=schedule.components,
    )
    fields.update(overrides)
    return Schedule(**fields)


class TestValidator:
    def test_valid_schedule_passes(self):
        validate_schedule(valid_schedule())

    def test_missing_operation_rejected(self):
        schedule = valid_schedule()
        operations = dict(schedule.operations)
        del operations["b"]
        broken = clone_with(schedule, operations=operations)
        with pytest.raises(ValidationError, match="SCH-COVERAGE"):
            validate_schedule(broken)

    def test_wrong_component_type_rejected(self):
        schedule = valid_schedule()
        operations = dict(schedule.operations)
        # Rebind a mix operation to a non-existent detector.
        record = operations["a"]
        operations["a"] = ScheduledOperation(
            "a", "Detector1", record.start, record.end
        )
        broken = clone_with(schedule, operations=operations)
        with pytest.raises(ValidationError, match="SCH-BINDING"):
            validate_schedule(broken)

    def test_wrong_duration_rejected(self):
        schedule = valid_schedule()
        operations = dict(schedule.operations)
        record = operations["a"]
        operations["a"] = ScheduledOperation(
            "a", record.component_id, record.start, record.end + 1.0
        )
        broken = clone_with(schedule, operations=operations)
        with pytest.raises(ValidationError, match="SCH-DURATION"):
            validate_schedule(broken)

    def test_component_overlap_rejected(self):
        assay = (
            AssayBuilder("t")
            .mix("a", duration=4, wash_time=1.0)
            .mix("b", duration=4, wash_time=1.0)
            .build()
        )
        schedule = schedule_assay(assay, Allocation(mixers=2))
        operations = dict(schedule.operations)
        target = schedule.operation("a").component_id
        operations["b"] = ScheduledOperation("b", target, 1.0, 5.0)
        broken = clone_with(schedule, operations=operations)
        with pytest.raises(ValidationError):
            validate_schedule(broken)

    def test_missing_movement_rejected(self):
        schedule = valid_schedule()
        broken = clone_with(schedule, movements=[])
        with pytest.raises(ValidationError, match="served by 0"):
            validate_schedule(broken)

    def test_duplicated_movement_rejected(self):
        schedule = valid_schedule()
        broken = clone_with(
            schedule, movements=schedule.movements + schedule.movements
        )
        with pytest.raises(ValidationError, match="served by 2"):
            validate_schedule(broken)

    def test_movement_departing_too_early_rejected(self):
        schedule = valid_schedule()
        movements = []
        for m in schedule.movements:
            movements.append(
                FluidMovement(
                    producer=m.producer,
                    consumer=m.consumer,
                    fluid=m.fluid,
                    src_component=m.src_component,
                    dst_component=m.dst_component,
                    depart=m.depart - 10.0,
                    arrive=m.arrive - 10.0,
                    consume=m.consume,
                    in_place=False,
                    evicted=m.evicted,
                )
            )
        broken = clone_with(schedule, movements=movements)
        with pytest.raises(ValidationError):
            validate_schedule(broken)

    def test_wash_gap_violation_rejected(self):
        assay = (
            AssayBuilder("t")
            .mix("a", duration=4, wash_time=5.0)
            .mix("b", duration=4, wash_time=1.0)
            .build()
        )
        schedule = schedule_assay(assay, Allocation(mixers=1))
        # Pull the second operation forward into the first's wash window.
        ordered = sorted(schedule.operations.values(), key=lambda r: r.start)
        second = ordered[1]
        operations = dict(schedule.operations)
        operations[second.op_id] = ScheduledOperation(
            second.op_id, second.component_id, ordered[0].end, ordered[0].end + 4.0
        )
        movements = [
            m for m in schedule.movements
        ]
        broken = clone_with(schedule, operations=operations, movements=movements)
        with pytest.raises(ValidationError):
            validate_schedule(broken)
