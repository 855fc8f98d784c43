"""Time-slot sets for routing-grid cells.

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

import bisect
from dataclasses import dataclass, field

from repro.errors import ValidationError
from repro.units import EPSILON, Seconds

__all__ = ["TimeSlot", "TimeSlotSet"]


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


class TimeSlotSet:
    """A set of pairwise-disjoint occupation slots, sorted by start.

    Insertion is ``O(n)`` (bisect + list insert) and overlap queries are
    ``O(log n + k)``; cells see at most a handful of slots in practice,
    so this comfortably beats an interval tree on constant factors.
    """

    def __init__(self) -> None:
        self._starts: list[Seconds] = []
        self._slots: list[TimeSlot] = []

    def __len__(self) -> int:
        return len(self._slots)

    def __iter__(self):
        return iter(self._slots)

    def slots(self) -> list[TimeSlot]:
        return list(self._slots)

    def conflicts_with(self, candidate: TimeSlot) -> bool:
        """Whether *candidate* overlaps any stored slot."""
        if not self._slots:
            return False
        index = bisect.bisect_left(self._starts, candidate.start)
        # The only possible overlaps are the predecessor (which may span
        # across candidate.start) and successors starting before the
        # candidate ends.
        if index > 0 and self._slots[index - 1].overlaps(candidate):
            return True
        while index < len(self._slots):
            slot = self._slots[index]
            if slot.start >= candidate.end - EPSILON:
                break
            if slot.overlaps(candidate):
                return True
            index += 1
        return False

    @classmethod
    def _from_disjoint_sorted(cls, slots: list[TimeSlot]) -> "TimeSlotSet":
        """Bulk constructor for already-validated, start-sorted slots.

        Replay helper for :meth:`RoutingGrid._replay_log`: the slots of
        a committed routing are pairwise disjoint by the routing
        invariant, so per-slot overlap checks and bisect insertion can
        be skipped.  The caller must present the exact order repeated
        :meth:`add` calls would have produced (ascending start; later
        insertions first among equal starts, matching ``bisect_left``).
        """
        built = cls()
        built._starts = [slot.start for slot in slots]
        built._slots = list(slots)
        return built

    def add(self, slot: TimeSlot) -> None:
        """Insert *slot*; raises :class:`ValidationError` on overlap.

        The no-overlap precondition is the routing invariant itself, so a
        violation is a router bug and must not pass silently.
        """
        if self.conflicts_with(slot):
            raise ValidationError(
                f"slot [{slot.start}, {slot.end}) overlaps an existing "
                "occupation"
            )
        index = bisect.bisect_left(self._starts, slot.start)
        self._starts.insert(index, slot.start)
        self._slots.insert(index, slot)
