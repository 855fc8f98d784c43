"""Schedule data model: the output of the binding & scheduling stage.

A :class:`Schedule` bundles, for one assay on one allocation:

* the binding function Φ and per-operation start/end times,
* every :class:`~repro.schedule.tasks.FluidMovement` (how each edge's
  fluid travelled: in place, direct transport, or evicted to distributed
  channel storage),
* the final per-component usage statistics,

and derives the paper's scheduling-side metrics: makespan, Eq. 1 resource
utilisation, total channel cache time (Fig. 8), and total component wash
time.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

from repro.assay.graph import SequencingGraph
from repro.components.allocation import Allocation
from repro.components.instances import ComponentState
from repro.errors import SchedulingError
from repro.schedule.tasks import FluidMovement, TransportTask
from repro.units import Seconds

__all__ = ["ScheduledOperation", "Schedule"]


@dataclass(frozen=True)
class ScheduledOperation:
    """Binding and timing of one operation."""

    op_id: str
    component_id: str
    start: Seconds
    end: Seconds

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise SchedulingError(
                f"operation {self.op_id}: end {self.end} precedes start "
                f"{self.start}"
            )

    @property
    def duration(self) -> Seconds:
        return self.end - self.start


@dataclass
class Schedule:
    """Complete result of resource binding and scheduling."""

    assay: SequencingGraph
    allocation: Allocation
    transport_time: Seconds
    operations: dict[str, ScheduledOperation] = field(default_factory=dict)
    movements: list[FluidMovement] = field(default_factory=list)
    components: dict[str, ComponentState] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def operation(self, op_id: str) -> ScheduledOperation:
        """Scheduled record of *op_id* (raises when unscheduled)."""
        try:
            return self.operations[op_id]
        except KeyError:
            raise SchedulingError(f"operation {op_id!r} is not scheduled") from None

    def binding(self) -> dict[str, str]:
        """The binding function Φ: operation id → component id."""
        return {o: rec.component_id for o, rec in self.operations.items()}

    def operations_on(self, component_id: str) -> list[ScheduledOperation]:
        """Operations executed on *component_id*, ordered by start time."""
        records = [
            rec
            for rec in self.operations.values()
            if rec.component_id == component_id
        ]
        return sorted(records, key=lambda rec: (rec.start, rec.op_id))

    # ------------------------------------------------------------------
    # Metrics (Section II-C / V)
    # ------------------------------------------------------------------
    @property
    def makespan(self) -> Seconds:
        """Completion time of the bioassay (execution time in Table I)."""
        if not self.operations:
            return 0.0
        return max(rec.end for rec in self.operations.values())

    def resource_utilisation(self) -> float:
        """Eq. 1: mean over components of busy time / active window.

        Computed from the operation records (not the engine's component
        state) so it remains correct after routing delays are retimed
        through the schedule.  Components that never execute an operation
        contribute 0, matching the equation's intent that idle allocated
        hardware is waste.
        """
        component_ids = [cid for cid, _ in self.allocation.iter_components()]
        if not component_ids:
            return 0.0
        total = 0.0
        for cid in component_ids:
            records = self.operations_on(cid)
            if not records:
                continue
            busy = _sum_in_order(rec.duration for rec in records)
            window = records[-1].end - records[0].start
            if window > 0:
                total += busy / window
            elif busy == 0 and len(records) > 0:
                # Zero-duration operations only: fully utilised window.
                total += 1.0
        return total / len(component_ids)

    def total_cache_time(self) -> Seconds:
        """Sum of channel cache times over all movements (Fig. 8)."""
        return _sum_in_order(m.cache_time for m in self.movements)

    def total_component_wash_time(self) -> Seconds:
        """Total wash seconds charged on components by Eq. 2."""
        return _sum_in_order(
            s.wash_time_total for s in self.components.values()
        )

    def transport_count(self) -> int:
        """Number of physical channel transports the router must realise."""
        return sum(1 for m in self.movements if not m.in_place)

    # ------------------------------------------------------------------
    # Routing interface
    # ------------------------------------------------------------------
    def transport_tasks(self) -> list[TransportTask]:
        """Physical transports, sorted by non-decreasing start time.

        This is exactly the task list Algorithm 2 (lines 11–18) consumes.
        Tasks whose consumer is the chip outlet are included: the fluid
        still travels through channels and washes must still be planned.
        """
        tasks = []
        for index, movement in enumerate(self.movements):
            if movement.in_place:
                continue
            tasks.append(movement.to_transport_task(f"tk{index}"))
        tasks.sort(key=lambda t: (t.depart, t.task_id))
        return tasks

    def concurrency_of(self, task: TransportTask, tasks: Iterable[TransportTask]) -> int:
        """Number of other transports overlapping *task* in time.

        This is Eq. 4's ``nt_k`` for the placement stage's connection
        priorities.  Linear in the task count — use
        :meth:`concurrencies` to get every task's count at once; this
        per-task form is kept as the oracle for spot checks.
        """
        return sum(
            1
            for other in tasks
            if other.task_id != task.task_id and task.overlaps(other)
        )

    def concurrencies(
        self, tasks: Iterable[TransportTask] | None = None
    ) -> dict[str, int]:
        """Eq. 4's ``nt_k`` for every transport task, in one sorted pass.

        Equivalent to calling :meth:`concurrency_of` per task (the test
        suite asserts equality) but ``O(T log T)`` instead of ``O(T²)``:
        a task's overlap count is the complement of the tasks that end
        no later than it starts plus those that start no earlier than it
        ends, read off two sorted endpoint arrays with binary search.

        Zero-length occupations need care: ``[t, t]`` overlaps nothing
        at its own point (the strict ``<`` comparisons in
        :meth:`TransportTask.overlaps`), and such a task lands in *both*
        complement sets, so it is added back once.
        """
        task_list = self.transport_tasks() if tasks is None else list(tasks)
        occupations = [task.occupation for task in task_list]
        starts = sorted(start for start, _ in occupations)
        ends = sorted(end for _, end in occupations)
        zero_points = Counter(
            start for start, end in occupations if start == end
        )
        n = len(task_list)
        result: dict[str, int] = {}
        for task, (start, end) in zip(task_list, occupations):
            starts_after = n - bisect_left(starts, end)
            ends_before = bisect_right(ends, start)
            counted_twice = zero_points[start] if start == end else 0
            count = n - starts_after - ends_before + counted_twice
            if start < end:
                count -= 1  # a non-degenerate task overlaps itself
            result[task.task_id] = count
        return result


def _sum_in_order(values: Iterable[Seconds]) -> Seconds:
    """Left-to-right sum, the same float on every CPython version.

    From 3.12 on, builtin ``sum()`` compensates float rounding, so its
    result can differ in the last bit from 3.10/3.11's plain additions.
    These totals are part of the solution document and its digest.
    """
    total: Seconds = 0
    for value in values:
        total += value
    return total
