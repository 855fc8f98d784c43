"""Simulated-annealing placement (Algorithm 2, lines 1–8).

The annealer follows the paper's schedule exactly: start from a random
legal placement at temperature ``T0``; at each temperature perform
``Imax`` move trials, accepting an uphill move of cost ``Δ`` with
probability ``e^(−Δ/T)``; cool by ``T ← α·T`` until ``T ≤ Tmin``.
Defaults are the paper's: ``T0=10000, Tmin=1.0, α=0.9, Imax=150``.

The best placement ever seen is returned (not merely the final one) —
standard practice that only improves on the paper's description.

Each temperature step is one call of
:meth:`~repro.place.incremental.PlacementWorkspace.anneal_step`, the
workspace's kernel: in-place moves, bitset legality, delta energy over
only the nets incident to the moved components, acceptance and the
best-so-far check, all in one loop.

The kernel consumes the seeded RNG through the *identical* draw
sequence as the straightforward immutable formulation (one new
:class:`~repro.place.placement.Placement`, full legality scan, and full
Eq. 3 evaluation per trial) and makes identical accept/reject
decisions, so a given seed yields the same best placement and
bit-identical best energy.  The test suite keeps that formulation as an
oracle (``tests/oracles/annealing.py``) and asserts the parity per
temperature step and per anneal in ``tests/place/test_incremental.py``
and ``tests/place/test_sampler.py``.

The kernel does not pay a full Eq. 3 pass per accepted move.  After a
commit it compares the workspace's running estimate with the best
energy: only when the estimate lies within the workspace's guard band
(``slack``) of the best, or below it, does it read the exact energy
and compare that.  Outside the band the exact comparison cannot come
out differently, so best-so-far decisions are unchanged.  Every energy
that leaves the loop — ``best_energy``, the per-step ``energy_trace``
and ``sa.step`` values — is a full evaluation, bit for bit.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache
from time import perf_counter
from typing import Callable

from repro.errors import PlacementError
from repro.obs.instrument import Instrumentation
from repro.place.energy import ConnectionPriorities
from repro.place.grid import ChipGrid
from repro.place.incremental import PlacementWorkspace
from repro.place.moves import random_placement
from repro.place.placement import Placement

__all__ = [
    "AnnealingParameters",
    "AnnealingResult",
    "anneal_placement",
    "PLACEMENT_ENGINES",
]

#: Valid values of :func:`anneal_placement`'s ``engine`` parameter.
#: The workspace loop is the only engine; the parameter stays because
#: callers name it and the value appears in result documents.
PLACEMENT_ENGINES = ("incremental",)

@dataclass(frozen=True)
class AnnealingParameters:
    """SA control parameters (paper defaults)."""

    initial_temperature: float = 10_000.0
    min_temperature: float = 1.0
    cooling_rate: float = 0.9
    iterations_per_temperature: int = 150

    def __post_init__(self) -> None:
        if not (
            math.isfinite(self.initial_temperature)
            and math.isfinite(self.min_temperature)
        ):
            raise PlacementError("temperatures must be finite")
        if not 0 < self.cooling_rate < 1:
            raise PlacementError(
                f"cooling rate must be in (0,1), got {self.cooling_rate}"
            )
        if self.initial_temperature <= self.min_temperature:
            raise PlacementError("initial temperature must exceed the minimum")
        if self.min_temperature <= 0:
            raise PlacementError("minimum temperature must be positive")
        if self.iterations_per_temperature <= 0:
            raise PlacementError("Imax must be positive")

    @property
    def temperature_steps(self) -> int:
        """Number of cooling steps the schedule will take.

        Counted with :func:`anneal_placement`'s own ``T ← α·T`` float
        products, so it agrees with the loop where a closed-form
        logarithm would round the other way.
        """
        return self.temperature_steps_up_to(None)

    def temperature_steps_up_to(self, limit: int | None) -> int:
        """:attr:`temperature_steps`, but counting stops at ``limit + 1``.

        A cooling rate just under 1 makes billions of steps; a caller
        that only needs to know whether the schedule fits in *limit*
        steps gets the answer without counting them all.
        """
        return _count_steps(
            self.initial_temperature, self.min_temperature,
            self.cooling_rate, limit,
        )


@lru_cache(maxsize=256)
def _count_steps(
    temperature: float, minimum: float, rate: float, limit: int | None
) -> int:
    # Cached: every service submission validates its schedule, and
    # almost all of them repeat the paper's.
    steps = 0
    while temperature > minimum:
        steps += 1
        if limit is not None and steps > limit:
            break
        temperature *= rate
    return steps


@dataclass
class AnnealingResult:
    """Placement plus convergence diagnostics."""

    placement: Placement
    energy: float
    initial_energy: float
    accepted_moves: int
    trials: int
    energy_trace: list[float]
    #: The RNG seed that produced this result; under multi-start
    #: (:func:`repro.parallel.anneal_multistart`) this identifies the
    #: winning restart.
    seed: int | None = None

    @property
    def acceptance_ratio(self) -> float:
        return self.accepted_moves / self.trials if self.trials else 0.0


def anneal_placement(
    grid: ChipGrid,
    footprints: dict[str, tuple[int, int]],
    priorities: ConnectionPriorities,
    parameters: AnnealingParameters | None = None,
    seed: int = 0,
    instrumentation: Instrumentation | None = None,
    engine: str = "incremental",
    verify: bool = False,
) -> AnnealingResult:
    """Run the SA placer and return the best placement found.

    Parameters
    ----------
    grid:
        The chip's cell array.
    footprints:
        ``cid -> (width, height)`` in cells for every component.
    priorities:
        Precomputed Eq. 4 connection priorities of the schedule.
    parameters:
        SA knobs; ``None`` selects the paper's defaults.
    seed:
        RNG seed — annealing is fully deterministic given the seed.
    instrumentation:
        Optional :class:`~repro.obs.Instrumentation`; receives move
        counters (``sa.moves_*``) and one ``sa.step`` convergence event
        per temperature (temperature, energy, best energy, acceptance
        ratio) — the trace Fig.-style solver papers report.
    engine:
        ``"incremental"``, the only engine (see
        :data:`PLACEMENT_ENGINES`).
    verify:
        After every commit that moves a block, check the workspace
        against a from-scratch Eq. 3 evaluation — a bit-exact full pass,
        the running estimate inside its guard band, the move's delta
        within ``1e-9`` of the realised change — and the occupancy
        bitset against the blocks.  It runs the same kernel as a plain
        anneal and does not change the walk.  Slow; meant for
        tests and debugging.
    """
    if engine not in PLACEMENT_ENGINES:
        raise PlacementError(
            f"unknown placement engine {engine!r}; "
            f"expected one of {PLACEMENT_ENGINES}"
        )
    params = parameters or AnnealingParameters()
    rng = random.Random(seed)
    # The seeded random starting placement (Algorithm 2 line 1).
    initial = random_placement(grid, footprints, rng)
    if initial is None:
        raise PlacementError(
            f"could not find an initial legal placement of "
            f"{len(footprints)} components on a "
            f"{grid.width}x{grid.height} grid"
        )
    workspace = PlacementWorkspace(initial, priorities)
    initial_energy = workspace.energy
    check = _commit_checker(workspace) if verify else None
    best_energy = initial_energy
    best_blocks = {cid: initial.block(cid) for cid in initial.components()}
    accepted = 0
    trials = 0
    trace: list[float] = []
    temperature = params.initial_temperature
    while temperature > params.min_temperature:
        step_started = perf_counter()
        step_trials, step_accepted, best_energy, snapshot = (
            workspace.anneal_step(
                rng, temperature, params.iterations_per_temperature,
                best_energy, check,
            )
        )
        if snapshot is not None:
            best_blocks = snapshot
        current_energy = workspace.energy
        accepted += step_accepted
        trials += step_trials
        trace.append(current_energy)
        _flush_step(
            instrumentation, temperature, current_energy, best_energy,
            step_trials, step_accepted, perf_counter() - step_started,
        )
        temperature *= params.cooling_rate
    _flush_final(instrumentation, initial_energy, best_energy)
    return AnnealingResult(
        placement=Placement(workspace.grid, best_blocks),
        energy=best_energy,
        initial_energy=initial_energy,
        accepted_moves=accepted,
        trials=trials,
        energy_trace=trace,
        seed=seed,
    )


def _flush_step(
    instrumentation: Instrumentation | None,
    temperature: float,
    energy: float,
    best_energy: float,
    step_trials: int,
    step_accepted: int,
    elapsed: float = 0.0,
) -> None:
    """Per-temperature instrumentation flush (shared with the test oracle)."""
    if instrumentation is None:
        return
    instrumentation.count("sa.moves_proposed", step_trials)
    instrumentation.count("sa.moves_accepted", step_accepted)
    instrumentation.count("sa.moves_rejected", step_trials - step_accepted)
    instrumentation.count("sa.temperature_steps")
    instrumentation.observe("sa.step_seconds", elapsed)
    instrumentation.event(
        "sa.step",
        temperature=temperature,
        energy=energy,
        best_energy=best_energy,
        acceptance_ratio=(step_accepted / step_trials if step_trials else 0.0),
    )


def _flush_final(
    instrumentation: Instrumentation | None,
    initial_energy: float,
    best_energy: float,
) -> None:
    if instrumentation is None:
        return
    instrumentation.gauge("sa.final_energy", best_energy)
    instrumentation.gauge("sa.initial_energy", initial_energy)


def _commit_checker(workspace: PlacementWorkspace) -> Callable[[float], None]:
    """The per-commit check of a ``verify=True`` anneal.

    Checks the workspace once now, then returns a check for the kernel
    to call with each moving commit's incident-nets delta.  It asserts
    the workspace invariants (occupancy bitset and masks, centres,
    legality, a bit-exact full pass, the estimate inside its guard
    band) and that the delta agrees with the realised change within
    ``1e-9``.
    """
    energy_before = workspace.check_consistency()

    def check(delta: float) -> None:
        nonlocal energy_before
        energy_after = workspace.check_consistency()
        realised = energy_after - energy_before
        if abs(delta - realised) > 1e-9:
            raise PlacementError(
                f"delta estimate {delta!r} disagrees "
                f"with realised change {realised!r}"
            )
        energy_before = energy_after

    return check
