"""Problem definition and synthesis parameters (Section III).

:class:`SynthesisParameters` gathers every knob of the flow with the
paper's published defaults (Section V): ``α=0.9, β=0.6, γ=0.4,
T0=10000, Imax=150, Tmin=1.0, t_c=2.0, w_e=10``.
:class:`SynthesisProblem` is the *Given* triple — assay, component
allocation, and library — bundled with those parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.assay.graph import SequencingGraph
from repro.assay.validation import check_assay
from repro.check.report import CHECK_MODES
from repro.components.allocation import Allocation
from repro.components.library import DEFAULT_LIBRARY, ComponentLibrary
from repro.errors import PlacementError, ValidationError
from repro.place.annealing import PLACEMENT_ENGINES, AnnealingParameters
from repro.place.grid import DEFAULT_PITCH_MM, ChipGrid, auto_grid
from repro.route.router import DEFAULT_ROUTE_ENGINE, ROUTE_ENGINES
from repro.units import Millimetres, Seconds

__all__ = [
    "MAX_GRID_CELLS",
    "MAX_OPERATIONS",
    "SynthesisParameters",
    "SynthesisProblem",
    "resolve_grid",
]

#: Largest grid the flow accepts, in cells (256 x 256).  Registered
#: benchmarks auto-size to at most 22 x 22; routing time and memory
#: grow with the cell count, so a near-zero ``grid_fill_ratio`` or a
#: huge allocation fails fast instead of exhausting a worker.
MAX_GRID_CELLS = 256 * 256

#: Largest assay the flow accepts, in operations.  The largest
#: registered benchmark (Scale200) has 200 and the scale studies run
#: 400-operation assays (about 4 s per call on a 2-core host).
#: Scheduling grows about n^2.3 and routing about n^2.9 with the
#: operation count, so the limit leaves 2.5x headroom over the largest
#: studied size while a far larger assay fails fast instead of holding
#: a worker for minutes.
MAX_OPERATIONS = 1000


@dataclass(frozen=True)
class SynthesisParameters:
    """All tunables of the synthesis flow (paper defaults)."""

    #: Constant inter-component transport time ``t_c`` (s).
    transport_time: Seconds = 2.0
    #: Eq. 4 weighting of task concurrency (β).
    beta: float = 0.6
    #: Eq. 4 weighting of residue wash time (γ).
    gamma: float = 0.4
    #: SA initial temperature ``T0``.
    initial_temperature: float = 10_000.0
    #: SA termination temperature ``Tmin``.
    min_temperature: float = 1.0
    #: SA cooling rate ``α``.
    cooling_rate: float = 0.9
    #: SA iterations per temperature ``Imax``.
    iterations_per_temperature: int = 150
    #: Initial routing-cell weight ``w_e``.
    initial_cell_weight: float = 10.0
    #: Physical pitch of one grid cell (mm).
    cell_pitch_mm: Millimetres = DEFAULT_PITCH_MM
    #: Component area / chip area bound used when auto-sizing the grid.
    grid_fill_ratio: float = 0.25
    #: RNG seed for the annealer.
    seed: int = 0
    #: SA engine: only ``"incremental"`` (see
    #: :mod:`repro.place.annealing`).  The field stays because result
    #: documents and ledger records report it.
    placement_engine: str = "incremental"
    #: Routing engine: only ``"flat"`` (see :mod:`repro.route.flat`).
    #: The field stays because result documents and ledger records
    #: report it.
    route_engine: str = DEFAULT_ROUTE_ENGINE
    #: Independent SA restarts; the best placement wins under the
    #: ``(energy, derived seed)`` total order.  Restart 0 keeps the base
    #: seed, so ``restarts=1`` is exactly the single-anneal pipeline and
    #: best-of-N energy is never worse than the single run.
    restarts: int = 1
    #: Restart-seed derivation: only ``"splitmix"``, the SplitMix64 mix
    #: of :func:`repro.parallel.multistart.derive_seed`.
    seed_derivation: str = "splitmix"
    #: Worker processes for fanning restarts out
    #: (:mod:`repro.parallel`); the result is bit-identical for every
    #: value.  ``1`` runs inline, ``0`` means one worker per CPU.
    jobs: int = 1
    #: Independent design-rule audit of the finished result
    #: (:mod:`repro.check`): ``"off"`` skips it entirely, ``"report"``
    #: attaches the :class:`~repro.check.report.CheckReport` to the
    #: result, ``"strict"`` additionally raises
    #: :class:`~repro.errors.CheckError` on any violation.
    check: str = "off"

    def __post_init__(self) -> None:
        for name in (
            "transport_time", "beta", "gamma", "initial_cell_weight",
            "cell_pitch_mm",
        ):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(
                    f"{name} must be finite, got {getattr(self, name)!r}"
                )
        if self.transport_time < 0:
            raise ValidationError("transport time must be non-negative")
        if self.beta < 0 or self.gamma < 0:
            raise ValidationError("Eq. 4 weights must be non-negative")
        if self.initial_cell_weight < 0:
            raise ValidationError("initial cell weight must be non-negative")
        if self.cell_pitch_mm <= 0:
            raise ValidationError(
                f"cell pitch must be positive, got {self.cell_pitch_mm}"
            )
        if not 0 < self.grid_fill_ratio <= 1:
            raise ValidationError(
                f"grid fill ratio must be in (0, 1], "
                f"got {self.grid_fill_ratio}"
            )
        try:
            self.annealing()
        except PlacementError as error:
            raise ValidationError(str(error)) from None
        if self.placement_engine not in PLACEMENT_ENGINES:
            raise ValidationError(
                f"unknown placement engine {self.placement_engine!r}; "
                f"expected one of {PLACEMENT_ENGINES}"
            )
        if self.route_engine not in ROUTE_ENGINES:
            raise ValidationError(
                f"unknown route engine {self.route_engine!r}; "
                f"expected one of {ROUTE_ENGINES}"
            )
        if self.restarts < 1:
            raise ValidationError(
                f"restarts must be >= 1, got {self.restarts}"
            )
        if self.jobs < 0:
            raise ValidationError(
                f"jobs must be >= 1 (or 0 for one per CPU), got {self.jobs}"
            )
        if self.check not in CHECK_MODES:
            raise ValidationError(
                f"unknown check mode {self.check!r}; "
                f"expected one of {CHECK_MODES}"
            )
        # Lazy import: repro.parallel pulls in the pool machinery,
        # which problem construction should not pay for.
        from repro.parallel.multistart import SEED_DERIVATIONS

        if self.seed_derivation not in SEED_DERIVATIONS:
            raise ValidationError(
                f"unknown seed derivation {self.seed_derivation!r}; "
                f"expected one of {SEED_DERIVATIONS}"
            )

    def annealing(self) -> AnnealingParameters:
        """The SA-stage subset of these parameters."""
        return AnnealingParameters(
            initial_temperature=self.initial_temperature,
            min_temperature=self.min_temperature,
            cooling_rate=self.cooling_rate,
            iterations_per_temperature=self.iterations_per_temperature,
        )


@dataclass(frozen=True)
class SynthesisProblem:
    """The *Given* of the problem formulation, validated on construction."""

    assay: SequencingGraph
    allocation: Allocation
    library: ComponentLibrary = field(default=DEFAULT_LIBRARY)
    parameters: SynthesisParameters = field(default_factory=SynthesisParameters)
    grid: ChipGrid | None = None

    def __post_init__(self) -> None:
        if len(self.assay) > MAX_OPERATIONS:
            raise ValidationError(
                f"assay {self.assay.name!r} has {len(self.assay)} "
                f"operations, over the {MAX_OPERATIONS}-operation limit"
            )
        check_assay(self.assay, self.allocation)
        self.resolved_grid()

    def resolved_grid(self) -> ChipGrid:
        """The explicit grid, or one auto-sized for the allocation."""
        return resolve_grid(
            self.allocation, self.parameters, self.library, self.grid
        )

    def footprints(self) -> dict[str, tuple[int, int]]:
        """``cid -> (width, height)`` for every allocated component."""
        return {
            cid: self.library.footprint(op_type)
            for cid, op_type in self.allocation.iter_components()
        }


def resolve_grid(
    allocation: Allocation,
    parameters: SynthesisParameters,
    library: ComponentLibrary = DEFAULT_LIBRARY,
    grid: ChipGrid | None = None,
) -> ChipGrid:
    """*grid*, or one auto-sized for *allocation* under *parameters*.

    Raises :class:`ValidationError` when the grid has more than
    :data:`MAX_GRID_CELLS` cells.
    """
    if grid is None:
        grid = auto_grid(
            allocation,
            library,
            pitch_mm=parameters.cell_pitch_mm,
            fill_ratio=parameters.grid_fill_ratio,
        )
    if grid.cell_count > MAX_GRID_CELLS:
        raise ValidationError(
            f"grid {grid.width}x{grid.height} has {grid.cell_count} cells, "
            f"over the {MAX_GRID_CELLS}-cell limit (raise grid_fill_ratio "
            "or shrink the allocation)"
        )
    return grid
