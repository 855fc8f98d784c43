"""Reference routing plane — a dict-of-slot-sets grid, a test oracle.

The production router keeps its routing-time state in flat arrays
(:class:`repro.route.flat.FlatRoutingState`, with per-cell intervals in
:class:`repro.route.flat.FlatOccupancy`).  This module keeps the
original formulation: a :class:`TimeSlotSet` of occupation intervals
per :class:`~repro.place.grid.Cell` and a dict of cell weights, so the
parity suites can drive both routing loops over an independent state
and compare paths and occupations with the production engine.

Algorithm 2 (lines 9–10) initialises every grid cell with a constant
weight ``w_e`` and an empty time-slot set.  As tasks are routed, each
cell along a path has its weight replaced by the wash time of the
residue the task leaves (line 16) and the task's occupation slot
inserted (line 17).
"""

from __future__ import annotations

import bisect

from repro.errors import RoutingError, ValidationError
from repro.place.grid import Cell, ChipGrid
from repro.place.placement import Placement
from repro.route.flat import DEFAULT_INITIAL_WEIGHT
from repro.route.timeslots import TimeSlot
from repro.units import EPSILON, Seconds

__all__ = ["RoutingGrid", "TimeSlotSet"]


class TimeSlotSet:
    """A set of pairwise-disjoint occupation slots, sorted by start.

    Insertion is ``O(n)`` (bisect + list insert) and overlap queries are
    ``O(log n + k)``.
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


class RoutingGrid:
    """Mutable routing state over a placed chip.

    Offers the query/commit surface of
    :class:`~repro.route.flat.FlatRoutingState` (``is_routable`` /
    ``is_free`` / ``weight`` / ``commit_path``), so the production
    routing loops run over it unchanged.
    """

    def __init__(
        self,
        placement: Placement,
        initial_weight: float = DEFAULT_INITIAL_WEIGHT,
    ) -> None:
        if initial_weight < 0:
            raise RoutingError(f"initial weight must be >= 0, got {initial_weight}")
        self.placement = placement
        self.grid: ChipGrid = placement.grid
        self.initial_weight = initial_weight
        self._obstacles: set[Cell] = placement.occupied_cells()
        self._weights: dict[Cell, float] = {}
        self._slots: dict[Cell, TimeSlotSet] = {}

    def is_routable(self, cell: Cell) -> bool:
        """On-grid and not covered by a component block."""
        return self.grid.contains(cell) and cell not in self._obstacles

    def weight(self, cell: Cell) -> float:
        """Current ``w(i)`` of the cell (Eq. 5's additive term)."""
        return self._weights.get(cell, self.initial_weight)

    def slots(self, cell: Cell) -> TimeSlotSet:
        slot_set = self._slots.get(cell)
        if slot_set is None:
            slot_set = TimeSlotSet()
            self._slots[cell] = slot_set
        return slot_set

    def is_free(self, cell: Cell, slot: TimeSlot) -> bool:
        """Eq. 5 admissibility: routable and no slot overlap."""
        if not self.is_routable(cell):
            return False
        existing = self._slots.get(cell)
        return existing is None or not existing.conflicts_with(slot)

    def commit_path(
        self,
        cells: tuple[Cell, ...],
        task_id: str,
        slots: list[TimeSlot],
        wash_time: Seconds,
    ) -> None:
        """Claim *cells* for a routed task, one occupation slot per cell.

        Every cell's weight becomes the residue's wash time (Algorithm 2,
        line 16).  Raises when any cell is not actually free.
        """
        if len(slots) != len(cells):
            raise RoutingError(
                f"task {task_id}: {len(slots)} slots for {len(cells)} cells",
                task_id=task_id,
            )
        for cell, slot in zip(cells, slots):
            if not self.is_free(cell, slot):
                raise RoutingError(
                    f"task {task_id}: cell {cell} is not free for slot "
                    f"[{slot.start}, {slot.end})",
                    task_id=task_id,
                )
        for cell, slot in zip(cells, slots):
            self.slots(cell).add(slot)
            self._weights[cell] = wash_time
