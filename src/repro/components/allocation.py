"""Component allocations in the paper's ``(Mixers, Heaters, Filters,
Detectors)`` notation.

Table I describes each benchmark's resources as a 4-tuple, e.g.
``(8,0,0,2)`` for CPA.  :class:`Allocation` wraps that tuple with named
access, arithmetic helpers and expansion into concrete component ids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.assay.graph import OperationType
from repro.errors import AllocationError

__all__ = ["Allocation"]

_ORDER = (
    OperationType.MIX,
    OperationType.HEAT,
    OperationType.FILTER,
    OperationType.DETECT,
)

_FIELDS = {
    OperationType.MIX: "mixers",
    OperationType.HEAT: "heaters",
    OperationType.FILTER: "filters",
    OperationType.DETECT: "detectors",
}


@dataclass(frozen=True)
class Allocation:
    """Number of allocated components of each type.

    The field order matches Table I's ``(Mixers, Heaters, Filters,
    Detectors)`` column.
    """

    mixers: int = 0
    heaters: int = 0
    filters: int = 0
    detectors: int = 0

    def __post_init__(self) -> None:
        for op_type in _ORDER:
            count = self.count(op_type)
            # Counts are digested as JSON, where 3, 3.0 and True differ
            # although they compare (and hash) equal in Python.
            if isinstance(count, bool) or not isinstance(count, int):
                raise AllocationError(
                    f"{op_type.component_name} count must be an integer, "
                    f"got {type(count).__name__}"
                )
            if count < 0:
                raise AllocationError(
                    f"negative component count for {op_type.component_name}"
                )
        if self.total == 0:
            raise AllocationError("allocation provides no components at all")

    # ------------------------------------------------------------------
    def count(self, op_type: OperationType) -> int:
        """Number of allocated components serving *op_type*."""
        return getattr(self, _FIELDS[op_type])

    @property
    def total(self) -> int:
        """Total number of allocated components (the paper's ``|C|``)."""
        return self.mixers + self.heaters + self.filters + self.detectors

    def as_tuple(self) -> tuple[int, int, int, int]:
        """The Table I 4-tuple ``(Mixers, Heaters, Filters, Detectors)``."""
        return (self.mixers, self.heaters, self.filters, self.detectors)

    @classmethod
    def from_tuple(cls, counts: tuple[int, int, int, int]) -> "Allocation":
        """Build an allocation from the Table I 4-tuple."""
        if len(counts) != 4:
            raise AllocationError(
                f"allocation tuple must have 4 entries, got {len(counts)}"
            )
        return cls(*counts)

    def component_ids(self) -> list[str]:
        """Deterministic ids for every allocated component.

        Components are numbered per family starting at 1, in Table I
        order: ``Mixer1..MixerN, Heater1.., Filter1.., Detector1..``.
        """
        return [name for name, _ in self.iter_components()]

    def iter_components(self) -> Iterator[tuple[str, OperationType]]:
        """Yield ``(component_id, op_type)`` for every allocated component."""
        for op_type in _ORDER:
            family = op_type.component_name
            for index in range(1, self.count(op_type) + 1):
                yield f"{family}{index}", op_type

    def __str__(self) -> str:
        return f"({self.mixers},{self.heaters},{self.filters},{self.detectors})"
