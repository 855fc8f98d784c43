"""Semantic validation of assays against a component allocation.

:class:`~repro.assay.graph.SequencingGraph` construction already rejects
*structural* faults (cycles, dangling edges).  This module layers the
*semantic* checks that precede synthesis: every operation type must be
servable by the allocation, durations should be positive for real work,
and fan-in must be physically plausible.

The raising variant, :func:`check_assay`, runs on every
:class:`~repro.core.problem.SynthesisProblem` construction and every
schedule, so its passing verdict is memoised per (graph, allocation):
graphs are immutable, so a verdict cannot go stale, and the side table
holds its graphs weakly, so it never keeps one alive.

The findings are reported in the same :class:`~repro.check.report.Violation`
vocabulary the post-synthesis design-rule checker (:mod:`repro.check`)
uses — rules ``INP-CAPACITY``, ``INP-FANIN``, ``INP-DURATION`` and
``INP-SINK`` — so input and output validation share one report format.
The legacy ``errors``/``warnings`` string views are derived from the
violations unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from weakref import WeakKeyDictionary

from repro.assay.graph import OperationType, SequencingGraph
from repro.check.report import Severity, Violation
from repro.components.allocation import Allocation
from repro.errors import AllocationError

__all__ = ["ValidationReport", "validate_assay", "check_assay"]

#: A mixer merges two input fluids; detectors/heaters/filters take one.
MAX_FAN_IN = {
    OperationType.MIX: 2,
    OperationType.HEAT: 1,
    OperationType.FILTER: 1,
    OperationType.DETECT: 1,
}

#: Graph -> the allocations it passed :func:`check_assay` on.
_FEASIBLE: WeakKeyDictionary[SequencingGraph, set[Allocation]] = (
    WeakKeyDictionary()
)


@dataclass
class ValidationReport:
    """Outcome of :func:`validate_assay`.

    ``violations`` carry the structured findings; the ``errors`` and
    ``warnings`` properties expose the same messages as plain strings
    (errors make synthesis impossible, warnings flag suspicious-but-legal
    constructs such as zero-duration operations).
    """

    violations: list[Violation] = field(default_factory=list)

    @property
    def errors(self) -> list[str]:
        return [
            v.detail
            for v in self.violations
            if v.severity is Severity.ERROR
        ]

    @property
    def warnings(self) -> list[str]:
        return [
            v.detail
            for v in self.violations
            if v.severity is Severity.WARNING
        ]

    @property
    def ok(self) -> bool:
        """``True`` when no errors were found (warnings allowed)."""
        return not self.errors


def validate_assay(
    assay: SequencingGraph, allocation: Allocation
) -> ValidationReport:
    """Check that *assay* can be synthesised onto *allocation*.

    Returns a report rather than raising, so callers can surface every
    problem at once; :func:`check_assay` is the raising variant used by
    the synthesis entry points.
    """
    report = ValidationReport()
    needed = assay.count_by_type()
    for op_type, count in needed.items():
        if count > 0 and allocation.count(op_type) == 0:
            report.violations.append(
                Violation.of(
                    "INP-CAPACITY",
                    f"assay uses {count} {op_type.value} operation(s) but "
                    f"the allocation provides no {op_type.component_name}",
                    op_type.value,
                )
            )
    for op in assay.operations:
        fan_in = len(assay.parents(op.op_id))
        limit = MAX_FAN_IN[op.op_type]
        if fan_in > limit:
            report.violations.append(
                Violation.of(
                    "INP-FANIN",
                    f"operation {op.op_id!r} ({op.op_type.value}) has "
                    f"fan-in {fan_in}, above the physical limit of {limit}",
                    op.op_id,
                )
            )
        if op.duration == 0:
            report.violations.append(
                Violation.of(
                    "INP-DURATION",
                    f"operation {op.op_id!r} has zero duration",
                    op.op_id,
                )
            )
    if not assay.sinks():
        # Unreachable for a DAG with >=1 vertex, but kept as a guard for
        # future mutable-graph variants.
        report.violations.append(
            Violation.of("INP-SINK", "assay has no sink operation")
        )
    return report


def check_assay(assay: SequencingGraph, allocation: Allocation) -> None:
    """Raise :class:`AllocationError` when *assay* cannot run on *allocation*."""
    passed = _FEASIBLE.get(assay)
    if passed is not None and allocation in passed:
        return
    report = validate_assay(assay, allocation)
    if not report.ok:
        raise AllocationError(
            f"assay {assay.name!r} cannot be synthesised: "
            + "; ".join(report.errors)
        )
    _FEASIBLE.setdefault(assay, set()).add(allocation)
