"""Routing congestion analysis.

Summarises how hard each channel cell works: number of tasks crossing
it, total occupied seconds, and the residues it carried.  The hottest
cells explain channel-length and wash behaviour, and the report feeds
the heat-map SVG in :mod:`repro.viz.svg`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.place.grid import Cell
from repro.route.router import RoutingResult
from repro.units import Seconds

__all__ = ["CellCongestion", "CongestionReport", "analyse_congestion"]


@dataclass(frozen=True)
class CellCongestion:
    """Usage summary of one channel cell."""

    cell: Cell
    task_count: int
    occupied_seconds: Seconds
    distinct_fluids: int


@dataclass(frozen=True)
class CongestionReport:
    """Per-cell congestion of a routed layout, hottest first."""

    cells: tuple[CellCongestion, ...]

    @property
    def peak_task_count(self) -> int:
        return self.cells[0].task_count if self.cells else 0

    @property
    def total_occupied_seconds(self) -> Seconds:
        return sum(c.occupied_seconds for c in self.cells)

    @property
    def sharing_factor(self) -> float:
        """Mean tasks per used cell — >1 means paths share channels."""
        if not self.cells:
            return 0.0
        return sum(c.task_count for c in self.cells) / len(self.cells)

    def hottest(self, count: int = 5) -> tuple[CellCongestion, ...]:
        return self.cells[:count]

    def utilisation_of(self, cell: Cell) -> CellCongestion | None:
        for entry in self.cells:
            if entry.cell == cell:
                return entry
        return None


def analyse_congestion(routing: RoutingResult) -> CongestionReport:
    """Build the congestion report of a routed layout."""
    entries = []
    for cell, usages in routing.usage_history().items():
        entries.append(
            CellCongestion(
                cell=cell,
                task_count=len(usages),
                occupied_seconds=sum(u.slot.duration for u in usages),
                distinct_fluids=len({u.fluid.name for u in usages}),
            )
        )
    entries.sort(key=lambda e: (-e.task_count, -e.occupied_seconds, e.cell))
    return CongestionReport(cells=tuple(entries))
