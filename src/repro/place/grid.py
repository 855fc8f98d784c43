"""The chip's placement/routing grid.

Following Fig. 4, the layout plane is partitioned into an array of
rectangular cells.  Components occupy rectangular blocks of cells; flow
channels run along the remaining cells.  The default pitch of 10 mm per
cell calibrates channel lengths to the same order as Table I (hundreds
to thousands of millimetres).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

from repro.assay.graph import OperationType
from repro.components.allocation import Allocation
from repro.components.library import ComponentLibrary
from repro.errors import PlacementError
from repro.units import Millimetres

__all__ = ["Cell", "ChipGrid", "auto_grid"]

#: Default physical pitch of one grid cell, in millimetres.
DEFAULT_PITCH_MM: Millimetres = 10.0


class Cell(NamedTuple):
    """One grid cell, addressed by column ``x`` and row ``y``.

    A :class:`typing.NamedTuple` rather than a dataclass: cells are the
    hottest objects in the annealer and router inner loops, and tuple
    hashing/equality is several times faster than the generated
    dataclass equivalents.
    """

    x: int
    y: int

    def neighbours(self) -> tuple["Cell", "Cell", "Cell", "Cell"]:
        """The four orthogonal neighbours (may fall outside the grid)."""
        x, y = self
        return (
            Cell(x + 1, y),
            Cell(x - 1, y),
            Cell(x, y + 1),
            Cell(x, y - 1),
        )

    def manhattan(self, other: "Cell") -> int:
        """Manhattan distance to *other*, in cells."""
        return abs(self.x - other.x) + abs(self.y - other.y)


@dataclass(frozen=True)
class ChipGrid:
    """Dimensions and pitch of the chip's cell array."""

    width: int
    height: int
    pitch_mm: Millimetres = DEFAULT_PITCH_MM

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise PlacementError(
                f"grid must be positive, got {self.width}x{self.height}"
            )
        if self.pitch_mm <= 0:
            raise PlacementError(f"pitch must be positive, got {self.pitch_mm}")

    def contains(self, cell: Cell) -> bool:
        """Whether *cell* lies on the chip."""
        return 0 <= cell.x < self.width and 0 <= cell.y < self.height

    def cells(self) -> Iterator[Cell]:
        """All cells, row-major."""
        for y in range(self.height):
            for x in range(self.width):
                yield Cell(x, y)

    @property
    def cell_count(self) -> int:
        return self.width * self.height

    def length_mm(self, cells: int) -> Millimetres:
        """Physical channel length of *cells* grid cells."""
        return cells * self.pitch_mm


def auto_grid(
    allocation: Allocation,
    library: ComponentLibrary,
    pitch_mm: Millimetres = DEFAULT_PITCH_MM,
    fill_ratio: float = 0.25,
) -> ChipGrid:
    """Choose a square grid large enough for the allocation.

    The grid is sized so components cover at most *fill_ratio* of the
    chip, leaving ample routing space — mirroring the sparse layouts of
    Fig. 1/Fig. 4.  A lower bound of (largest footprint + 2) keeps even a
    single huge component placeable with a routing ring around it.
    """
    if not 0 < fill_ratio <= 1:
        raise PlacementError(f"fill ratio must be in (0, 1], got {fill_ratio}")
    total_area = sum(
        library.spec(op_type).area * allocation.count(op_type)
        for op_type in OperationType
        if allocation.count(op_type)
    )
    side = math.ceil(math.sqrt(total_area / fill_ratio))
    side = max(side, library.max_dimension() + 2)
    return ChipGrid(width=side, height=side, pitch_mm=pitch_mm)
