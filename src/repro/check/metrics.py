"""Independent recomputation of the reported evaluation metrics.

Every number in :class:`~repro.core.metrics.SynthesisMetrics` is
recomputed here from the synthesis artefacts (schedule, placement,
routing) and diffed against the reported value.  The recomputation
mirrors the *definition* of each metric — Table I's execution time is
the makespan with routing postponements propagated, Eq. 1 utilisation,
channel length as distinct routed cells times the pitch, the Fig. 8/9
cache and wash accounting — but is written from scratch: the realised
times come from a local fixed-point relaxation, not from
:func:`~repro.schedule.retiming.retime_with_delays`, and both wash
totals are replayed with local loops.

Emitted rules: ``MET-EXEC``, ``MET-UTIL``, ``MET-LENGTH``,
``MET-CACHE``, ``MET-WASH``, ``MET-COUNT``.

When the schedule itself is inconsistent (missing operations, cyclic
precedence after corruption), the realised-time relaxation cannot be
anchored; ``MET-EXEC``/``MET-UTIL`` are then skipped — the schedule
checker owns those defects, and piling a metrics complaint on top would
blur which rule a corruption actually violates.
"""

from __future__ import annotations

from collections import defaultdict

from repro.assay.fluids import Fluid
from repro.assay.graph import SequencingGraph
from repro.check.report import Violation
from repro.core.metrics import SynthesisMetrics
from repro.place.grid import Cell
from repro.route.router import RoutingResult
from repro.schedule.schedule import Schedule
from repro.units import EPSILON, Seconds

__all__ = ["check_metrics"]

#: Comparison slack for recomputed-vs-reported diffs.  Wider than the
#: model epsilon to absorb summation-order drift, still far below any
#: physically meaningful discrepancy.
_TOLERANCE = 1e-6


def check_metrics(
    assay: SequencingGraph,
    schedule: Schedule,
    routing: RoutingResult,
    metrics: SynthesisMetrics,
) -> list[Violation]:
    """All metrics-domain violations (empty when the report is honest)."""
    violations: list[Violation] = []

    realised = _realised_times(assay, schedule, routing)
    if realised is not None:
        _check_execution_time(realised, metrics, violations)
        _check_utilisation(schedule, realised, metrics, violations)
    _check_channel_length(routing, metrics, violations)
    _check_cache_time(schedule, metrics, violations)
    _check_wash_times(assay, schedule, routing, metrics, violations)
    _check_counts(schedule, routing, metrics, violations)
    return violations


# ----------------------------------------------------------------------
# Realised operation times (postponements propagated)
# ----------------------------------------------------------------------
def _realised_times(
    assay: SequencingGraph,
    schedule: Schedule,
    routing: RoutingResult,
) -> dict[str, tuple[str, Seconds, Seconds]] | None:
    """``op_id -> (component_id, start, end)`` after routing delays.

    Without postponements the planned times *are* the realised times
    (that is the reported metric's definition).  With postponements the
    times are relaxed to a fixed point of the two precedence relations —
    fluidic (parent end + travel + delay) and structural (previous
    operation on the same component + its planned slack).  Returns
    ``None`` when the schedule cannot anchor the relaxation (missing
    records, non-converging corrupted precedence): those defects belong
    to the schedule checker.
    """
    delays: dict[tuple[str, str], Seconds] = {}
    for path in routing.paths:
        if path.postponement > 0:
            delays[(path.task.producer, path.task.consumer)] = path.postponement

    try:
        records = {
            op_id: schedule.operations[op_id] for op_id in assay.operation_ids
        }
    except KeyError:
        return None
    if len(schedule.operations) != len(records):
        return None  # phantom operations: SCH-COVERAGE territory
    if not delays:
        return {
            op_id: (rec.component_id, rec.start, rec.end)
            for op_id, rec in records.items()
        }

    durations = {
        op_id: assay.operation(op_id).duration for op_id in assay.operation_ids
    }
    # Planned slack between consecutive operations on one component.
    follows: dict[str, tuple[str, Seconds]] = {}
    by_component: dict[str, list] = defaultdict(list)
    for record in records.values():
        by_component[record.component_id].append(record)
    for group in by_component.values():
        group.sort(key=lambda rec: (rec.start, rec.op_id))
        for earlier, later in zip(group, group[1:]):
            follows[later.op_id] = (earlier.op_id, later.start - earlier.end)
    in_place_edges = {
        (m.producer, m.consumer) for m in schedule.movements if m.in_place
    }
    t_c = schedule.transport_time

    start = {
        op_id: max(0.0, records[op_id].start) for op_id in assay.operation_ids
    }
    for _sweep in range(len(start) + 2):
        changed = False
        for op_id in assay.operation_ids:
            lower = max(0.0, records[op_id].start)
            for parent in assay.parents(op_id):
                travel = 0.0 if (parent, op_id) in in_place_edges else t_c
                bound = (
                    start[parent]
                    + durations[parent]
                    + travel
                    + delays.get((parent, op_id), 0.0)
                )
                if bound > lower:
                    lower = bound
            entry = follows.get(op_id)
            if entry is not None:
                prev_op, slack = entry
                bound = start[prev_op] + durations[prev_op] + slack
                if bound > lower:
                    lower = bound
            if lower > start[op_id]:
                start[op_id] = lower
                changed = True
        if not changed:
            break
    else:
        return None  # corrupted precedence never converges
    return {
        op_id: (
            records[op_id].component_id,
            start[op_id],
            start[op_id] + durations[op_id],
        )
        for op_id in assay.operation_ids
    }


# ----------------------------------------------------------------------
# MET-EXEC
# ----------------------------------------------------------------------
def _check_execution_time(
    realised: dict[str, tuple[str, Seconds, Seconds]],
    metrics: SynthesisMetrics,
    violations: list[Violation],
) -> None:
    makespan = max((end for _, _, end in realised.values()), default=0.0)
    if abs(metrics.execution_time - makespan) > _TOLERANCE:
        violations.append(
            Violation.of(
                "MET-EXEC",
                f"reported execution time {metrics.execution_time:g} s, "
                f"recomputed makespan {makespan:g} s",
                "execution_time",
            )
        )


# ----------------------------------------------------------------------
# MET-UTIL (Eq. 1)
# ----------------------------------------------------------------------
def _check_utilisation(
    schedule: Schedule,
    realised: dict[str, tuple[str, Seconds, Seconds]],
    metrics: SynthesisMetrics,
    violations: list[Violation],
) -> None:
    component_ids = [cid for cid, _ in schedule.allocation.iter_components()]
    if not component_ids:
        expected = 0.0
    else:
        by_component: dict[str, list[tuple[Seconds, Seconds, str]]] = (
            defaultdict(list)
        )
        for op_id, (cid, op_start, op_end) in realised.items():
            by_component[cid].append((op_start, op_end, op_id))
        total = 0.0
        for cid in component_ids:
            spans = sorted(by_component.get(cid, []))
            if not spans:
                continue
            busy = sum(op_end - op_start for op_start, op_end, _ in spans)
            window = spans[-1][1] - spans[0][0]
            if window > 0:
                total += busy / window
            elif busy == 0:
                total += 1.0
        expected = total / len(component_ids)
    if abs(metrics.resource_utilisation - expected) > _TOLERANCE:
        violations.append(
            Violation.of(
                "MET-UTIL",
                f"reported utilisation {metrics.resource_utilisation:.6f}, "
                f"Eq. 1 recomputation gives {expected:.6f}",
                "resource_utilisation",
            )
        )


# ----------------------------------------------------------------------
# MET-LENGTH
# ----------------------------------------------------------------------
def _check_channel_length(
    routing: RoutingResult,
    metrics: SynthesisMetrics,
    violations: list[Violation],
) -> None:
    used = {cell for path in routing.paths for cell in path.cells}
    expected = len(used) * routing.placement.grid.pitch_mm
    if abs(metrics.total_channel_length_mm - expected) > _TOLERANCE:
        violations.append(
            Violation.of(
                "MET-LENGTH",
                f"reported channel length "
                f"{metrics.total_channel_length_mm:g} mm, the routed paths "
                f"cover {len(used)} distinct cells = {expected:g} mm",
                "total_channel_length_mm",
            )
        )


# ----------------------------------------------------------------------
# MET-CACHE (Fig. 8)
# ----------------------------------------------------------------------
def _check_cache_time(
    schedule: Schedule,
    metrics: SynthesisMetrics,
    violations: list[Violation],
) -> None:
    expected = sum(m.consume - m.arrive for m in schedule.movements)
    if abs(metrics.total_cache_time - expected) > _TOLERANCE:
        violations.append(
            Violation.of(
                "MET-CACHE",
                f"reported cache time {metrics.total_cache_time:g} s, the "
                f"movements cache for {expected:g} s in total",
                "total_cache_time",
            )
        )


# ----------------------------------------------------------------------
# MET-WASH (Fig. 9 + Eq. 2 component bookkeeping)
# ----------------------------------------------------------------------
def _channel_wash_replay(routing: RoutingResult) -> Seconds:
    """Fig. 9 charges, replayed from the paths' own occupations."""
    usage: dict[Cell, list[tuple[Seconds, str, Fluid]]] = {}
    for path in routing.paths:
        for cell, slot in zip(path.cells, path.occupations):
            usage.setdefault(cell, []).append(
                (slot.start, path.task.task_id, path.task.fluid)
            )
    total = 0.0
    for events in usage.values():
        events.sort(key=lambda event: (event[0], event[1]))
        previous = None
        for _start, _task_id, fluid in events:
            if previous is not None and previous.name != fluid.name:
                total += previous.wash_time
            previous = fluid
        total += events[-1][2].wash_time
    return total


def _component_wash_replay(
    assay: SequencingGraph, schedule: Schedule
) -> Seconds:
    """Eq. 2 charges, replayed from the movements alone: one wash per
    operation whose output leaves its component other than by an
    in-place consumption (ties at the final departure prefer in-place —
    the residue is eaten, no wash due).  Sink outputs always leave
    through the outlet and always owe their wash."""
    leave_in_place: dict[str, bool] = {}
    leave_time: dict[str, Seconds] = {}
    for movement in schedule.movements:
        current = leave_time.get(movement.producer)
        if current is None or movement.depart > current + EPSILON:
            leave_time[movement.producer] = movement.depart
            leave_in_place[movement.producer] = movement.in_place
        elif (
            abs(movement.depart - current) <= EPSILON and movement.in_place
        ):
            leave_in_place[movement.producer] = True
    total = 0.0
    for op_id in assay.operation_ids:
        op = assay.operation(op_id)
        if not assay.children(op_id):
            total += op.wash_time
        elif op_id in leave_time and not leave_in_place[op_id]:
            total += op.wash_time
    return total


def _check_wash_times(
    assay: SequencingGraph,
    schedule: Schedule,
    routing: RoutingResult,
    metrics: SynthesisMetrics,
    violations: list[Violation],
) -> None:
    channel = _channel_wash_replay(routing)
    if abs(metrics.total_channel_wash_time - channel) > _TOLERANCE:
        violations.append(
            Violation.of(
                "MET-WASH",
                f"reported channel wash time "
                f"{metrics.total_channel_wash_time:g} s, the usage-history "
                f"replay charges {channel:g} s",
                "total_channel_wash_time",
            )
        )
    component = _component_wash_replay(assay, schedule)
    if abs(metrics.total_component_wash_time - component) > _TOLERANCE:
        violations.append(
            Violation.of(
                "MET-WASH",
                f"reported component wash time "
                f"{metrics.total_component_wash_time:g} s, the Eq. 2 replay "
                f"charges {component:g} s",
                "total_component_wash_time",
            )
        )


# ----------------------------------------------------------------------
# MET-COUNT
# ----------------------------------------------------------------------
def _check_counts(
    schedule: Schedule,
    routing: RoutingResult,
    metrics: SynthesisMetrics,
    violations: list[Violation],
) -> None:
    transports = sum(1 for m in schedule.movements if not m.in_place)
    if metrics.transport_count != transports:
        violations.append(
            Violation.of(
                "MET-COUNT",
                f"reported {metrics.transport_count} transports, the "
                f"schedule contains {transports} physical movements",
                "transport_count",
            )
        )
    postponed = sum(path.postponement for path in routing.paths)
    if abs(metrics.total_postponement - postponed) > _TOLERANCE:
        violations.append(
            Violation.of(
                "MET-COUNT",
                f"reported total postponement {metrics.total_postponement:g} "
                f"s, the routed paths accumulate {postponed:g} s",
                "total_postponement",
            )
        )
    if metrics.cpu_time < 0:
        violations.append(
            Violation.of(
                "MET-COUNT",
                f"reported cpu time {metrics.cpu_time:g} s is negative",
                "cpu_time",
            )
        )
