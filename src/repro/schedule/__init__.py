"""Resource binding and scheduling (Section IV-A of the paper)."""

from repro.schedule.baseline_scheduler import schedule_assay_baseline
from repro.schedule.bounds import MakespanBounds, makespan_lower_bounds
from repro.schedule.engine import (
    DEFAULT_TRANSPORT_TIME,
    BindingPolicy,
    OrderPolicy,
    SchedulerEngine,
    SchedulingPolicy,
)
from repro.schedule.dedicated import (
    DedicatedStorageScheduler,
    schedule_assay_dedicated,
)
from repro.schedule.list_scheduler import schedule_assay
from repro.schedule.priority import compute_priorities, critical_operations
from repro.schedule.retiming import retime_with_delays
from repro.schedule.schedule import Schedule, ScheduledOperation
from repro.schedule.tasks import FluidMovement, TransportTask
from repro.schedule.validate import validate_schedule

__all__ = [
    "BindingPolicy",
    "DEFAULT_TRANSPORT_TIME",
    "DedicatedStorageScheduler",
    "MakespanBounds",
    "FluidMovement",
    "OrderPolicy",
    "Schedule",
    "ScheduledOperation",
    "SchedulerEngine",
    "SchedulingPolicy",
    "TransportTask",
    "compute_priorities",
    "critical_operations",
    "makespan_lower_bounds",
    "retime_with_delays",
    "schedule_assay",
    "schedule_assay_baseline",
    "schedule_assay_dedicated",
    "validate_schedule",
]
