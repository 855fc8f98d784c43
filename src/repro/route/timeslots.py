"""Occupation intervals of routing-grid cells.

Each routing cell carries a set of occupation intervals
``T_i = {(st, et)}`` (Section IV-B.2): cell ``ce_i`` is held by some
transportation task from ``st`` to ``et`` (transport + distributed-
channel cache + wash of the residue).  Eq. 5 admits a cell for a new
task only when the new slot intersects none of the existing ones.

Intervals are half-open ``[start, end)`` so back-to-back slots (one task
entering exactly when the previous wash finishes) do not conflict —
matching the ``∩ = ∅`` condition of the paper with instantaneous
hand-over.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ValidationError
from repro.units import EPSILON, Seconds

__all__ = ["TimeSlot"]


@dataclass(frozen=True, order=True)
class TimeSlot:
    """A half-open occupation interval ``[start, end)``."""

    start: Seconds
    end: Seconds

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValidationError(
                f"time slot ends before it starts: [{self.start}, {self.end})"
            )

    def overlaps(self, other: "TimeSlot") -> bool:
        """Interval intersection test (with epsilon slack at the joints).

        Empty (zero-length) intervals overlap nothing — they occur as
        degenerate probes (e.g. a zero transport time) and must never
        register conflicts.
        """
        if self.duration <= EPSILON or other.duration <= EPSILON:
            return False
        return (
            self.start < other.end - EPSILON
            and other.start < self.end - EPSILON
        )

    @property
    def duration(self) -> Seconds:
        return self.end - self.start
