"""The component library: per-family geometry and capabilities.

The paper's inputs include "a component library C" (Section III).  For the
physical stages we need each family's footprint on the placement grid;
the defaults below follow the visual proportions of Fig. 1/Fig. 4, where
mixers are the large ring structures and detectors/heaters are compact.

All footprints are expressed in grid cells; the grid pitch (mm per cell)
lives in :class:`~repro.place.grid.ChipGrid`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.assay.graph import OperationType
from repro.errors import AllocationError

__all__ = ["ComponentSpec", "ComponentLibrary", "DEFAULT_LIBRARY"]


@dataclass(frozen=True)
class ComponentSpec:
    """Geometry and metadata of one component family.

    Parameters
    ----------
    op_type:
        Operation family the component executes.
    width, height:
        Footprint in grid cells (before rotation).
    description:
        Short human-readable description for reports.
    """

    op_type: OperationType
    width: int
    height: int
    description: str = ""

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise AllocationError(
                f"{self.op_type.component_name}: footprint must be positive, "
                f"got {self.width}x{self.height}"
            )

    @property
    def area(self) -> int:
        """Footprint area in grid cells."""
        return self.width * self.height

    def rotated(self) -> "ComponentSpec":
        """The same spec with width/height exchanged (90° rotation)."""
        return ComponentSpec(
            op_type=self.op_type,
            width=self.height,
            height=self.width,
            description=self.description,
        )


class ComponentLibrary:
    """Mapping from operation type to :class:`ComponentSpec`.

    The library must be *complete*: a spec for every
    :class:`~repro.assay.graph.OperationType` (synthesis may touch any of
    them, and partial libraries were a recurring source of late failures
    in earlier biochip flows).
    """

    def __init__(self, specs: Mapping[OperationType, ComponentSpec]):
        missing = [t for t in OperationType if t not in specs]
        if missing:
            names = ", ".join(t.value for t in missing)
            raise AllocationError(f"component library missing specs for: {names}")
        for op_type, spec in specs.items():
            if spec.op_type != op_type:
                raise AllocationError(
                    f"library entry for {op_type.value} holds a spec for "
                    f"{spec.op_type.value}"
                )
        self._specs = dict(specs)
        self._max_dimension = max(
            max(spec.width, spec.height) for spec in self._specs.values()
        )

    def spec(self, op_type: OperationType) -> ComponentSpec:
        """The spec of the family serving *op_type*."""
        return self._specs[op_type]

    def __getitem__(self, op_type: OperationType) -> ComponentSpec:
        return self._specs[op_type]

    def footprint(self, op_type: OperationType) -> tuple[int, int]:
        """``(width, height)`` in grid cells for *op_type*'s family."""
        spec = self._specs[op_type]
        return spec.width, spec.height

    def max_dimension(self) -> int:
        """Largest single footprint dimension across all families."""
        return self._max_dimension


#: Default geometry: mixers are the big ring mixers of Fig. 1 (3x2 cells);
#: heaters and filters are elongated (2x1); detectors are compact (1x1).
DEFAULT_LIBRARY = ComponentLibrary(
    {
        OperationType.MIX: ComponentSpec(
            OperationType.MIX, 3, 2, "ring mixer with peristaltic valves"
        ),
        OperationType.HEAT: ComponentSpec(
            OperationType.HEAT, 2, 1, "serpentine channel heater"
        ),
        OperationType.FILTER: ComponentSpec(
            OperationType.FILTER, 2, 1, "membrane filter stage"
        ),
        OperationType.DETECT: ComponentSpec(
            OperationType.DETECT, 1, 1, "optical detection window"
        ),
    }
)
