"""Routed path model — the one record of a routing.

A routed path is a 4-connected sequence of free grid cells from a port
of the source component to a port of the destination component.  The
:class:`RoutedPath` records the path together with the task it realises,
the task's cache slot, and its per-cell **occupations**: the slot each
cell was claimed for when the path was committed (Algorithm 2, lines
15–17).  Under DCSA those occupations are also the record of channel
storage, so the metrics, wash, control and rendering stages all read
them from the paths (see :meth:`repro.route.router.RoutingResult.
usage_history`).  The path validates its own connectivity — a
disconnected "path" is a router bug that must surface immediately.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.assay.fluids import Fluid
from repro.errors import RoutingError
from repro.place.grid import Cell
from repro.route.timeslots import TimeSlot
from repro.schedule.tasks import TransportTask
from repro.units import Millimetres

__all__ = ["CellUsage", "RoutedPath"]


class CellUsage(NamedTuple):
    """One task's use of one cell (for wash accounting).

    A named tuple rather than a frozen dataclass: usage events are
    created in bulk (one per path cell on every usage-history read) and
    tuple construction skips the ``object.__setattr__`` per field that
    frozen dataclasses pay.
    """

    task_id: str
    fluid: Fluid
    slot: TimeSlot


@dataclass(frozen=True)
class RoutedPath:
    """One realised transportation task."""

    task: TransportTask
    cells: tuple[Cell, ...]
    slot: TimeSlot
    #: The occupation committed on each cell, index-aligned with
    #: ``cells`` (transit / cache / tail, see
    #: :func:`repro.route.router.plan_path_slots`).
    occupations: tuple[TimeSlot, ...]
    #: Extra delay applied to the task by construction-by-correction
    #: (always 0 for the conflict-aware router).
    postponement: float = 0.0

    def __post_init__(self) -> None:
        if not self.cells:
            raise RoutingError(
                f"task {self.task.task_id}: routed path has no cells",
                task_id=self.task.task_id,
            )
        if len(self.occupations) != len(self.cells):
            raise RoutingError(
                f"task {self.task.task_id}: {len(self.occupations)} "
                f"occupations for {len(self.cells)} cells",
                task_id=self.task.task_id,
            )
        for a, b in zip(self.cells, self.cells[1:]):
            if a.manhattan(b) != 1:
                raise RoutingError(
                    f"task {self.task.task_id}: path cells {a} and {b} are "
                    "not orthogonal neighbours",
                    task_id=self.task.task_id,
                )
        if len(set(self.cells)) != len(self.cells):
            raise RoutingError(
                f"task {self.task.task_id}: path revisits a cell",
                task_id=self.task.task_id,
            )

    @property
    def length_cells(self) -> int:
        """Channel length of this path, in cells."""
        return len(self.cells)

    def length_mm(self, pitch_mm: Millimetres) -> Millimetres:
        """Channel length of this path, in millimetres."""
        return self.length_cells * pitch_mm
