"""Simulated-annealing placement (Algorithm 2, lines 1–8).

The annealer follows the paper's schedule exactly: start from a random
legal placement at temperature ``T0``; at each temperature perform
``Imax`` move trials, accepting an uphill move of cost ``Δ`` with
probability ``e^(−Δ/T)``; cool by ``T ← α·T`` until ``T ≤ Tmin``.
Defaults are the paper's: ``T0=10000, Tmin=1.0, α=0.9, Imax=150``.

The best placement ever seen is returned (not merely the final one) —
standard practice that only improves on the paper's description.

Two engines implement the move loop:

* ``engine="incremental"`` (default) — the
  :class:`~repro.place.incremental.PlacementWorkspace`: in-place
  apply/undo moves, occupancy-index legality, and delta energy over only
  the nets incident to the moved components.  One-shot, resumed and
  portfolio anneals all run the same step loop
  (:func:`_resume_incremental_checkpoint`).
* ``engine="batch"`` (:mod:`repro.place.batch`) vectorizes the move
  loop with numpy: per step it proposes ``batch_size`` candidate moves,
  evaluates every delta as array ops, and applies Metropolis acceptance
  to the greedily-best candidate.  At ``batch_size=1`` it runs the
  incremental loop and is therefore bit-identical to it; at larger
  batch sizes it explores more and trades the bit-level contract for a
  never-worse-energy gate (see the batch module docstring for the
  RNG-stream contract).

The incremental engine consumes the seeded RNG through the *identical*
draw sequence as the straightforward immutable formulation (one new
:class:`~repro.place.placement.Placement`, full legality scan, and full
Eq. 3 evaluation per trial) and makes identical accept/reject
decisions, so a given seed yields the same best placement and
bit-identical best energy.  The test suite keeps that formulation as an
oracle and asserts the parity in ``tests/place/test_incremental.py``.

The loop does not pay a full Eq. 3 pass per accepted move.  After a
commit it compares the workspace's running estimate with the best
energy: only when the estimate lies within the workspace's guard band
(``slack``) of the best, or below it, does it read the exact energy
and compare that.  Outside the band the exact comparison cannot come
out differently, so best-so-far decisions are unchanged.  Every energy
that leaves the loop — ``best_energy``, the per-step ``energy_trace``
and ``sa.step`` values, and checkpoint energies — is a full evaluation,
bit for bit.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from time import perf_counter

from repro.errors import PlacementError
from repro.obs.instrument import Instrumentation
from repro.place.energy import ConnectionPriorities, placement_energy
from repro.place.grid import ChipGrid
from repro.place.incremental import MOVE_KINDS, PendingMove, PlacementWorkspace
from repro.place.moves import random_placement
from repro.place.placement import Placement

__all__ = [
    "AnnealCheckpoint",
    "AnnealingParameters",
    "AnnealingResult",
    "anneal_placement",
    "anneal_resume",
    "anneal_start",
    "checkpoint_result",
    "PLACEMENT_ENGINES",
]

#: Valid values of :func:`anneal_placement`'s ``engine`` parameter.
#: ``"batch"`` is the numpy best-of-K kernel of :mod:`repro.place.batch`;
#: at ``batch_size=1`` it runs the incremental loop and is
#: bit-identical to ``"incremental"``.
PLACEMENT_ENGINES = ("incremental", "batch")

#: Below this magnitude the incident-nets delta estimate cannot be
#: trusted to carry the same *sign* as a full-evaluation difference
#: (symmetric moves have a true delta of exactly zero, and the two
#: computations round differently), so the incremental engine falls
#: back to the exact delta.  A wrong sign would change the RNG stream:
#: ``delta < 0`` accepts without drawing ``rng.random()``.  The
#: estimate and the exact delta agree within ~1e-11, so any estimate
#: beyond this threshold has a reliable sign.
_EXACT_DELTA_THRESHOLD = 1e-6


@dataclass(frozen=True)
class AnnealingParameters:
    """SA control parameters (paper defaults)."""

    initial_temperature: float = 10_000.0
    min_temperature: float = 1.0
    cooling_rate: float = 0.9
    iterations_per_temperature: int = 150
    #: Candidates proposed per step by the batch engine (``engine=
    #: "batch"``); the other engines ignore it.  ``1`` degenerates to
    #: the incremental engine's exact move loop.
    batch_size: int = 16
    #: Optional move-mix weights ``(translate, swap, rotate)``.
    #: ``None`` (the default) keeps the uniform sampler and its exact
    #: RNG draw sequence — the bit-parity contract only covers that
    #: default.  Portfolio arms set this to bias exploration.
    move_weights: tuple[float, float, float] | None = None

    def __post_init__(self) -> None:
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
        if self.batch_size < 1:
            raise PlacementError(
                f"batch size must be >= 1, got {self.batch_size}"
            )
        if self.move_weights is not None:
            if len(self.move_weights) != len(MOVE_KINDS):
                raise PlacementError(
                    f"move_weights needs one weight per kind "
                    f"{MOVE_KINDS}, got {self.move_weights!r}"
                )
            if min(self.move_weights) < 0 or sum(self.move_weights) <= 0:
                raise PlacementError(
                    f"move_weights must be non-negative with a positive "
                    f"sum, got {self.move_weights!r}"
                )

    @property
    def temperature_steps(self) -> int:
        """Number of cooling steps the schedule will take."""
        ratio = math.log(self.min_temperature / self.initial_temperature)
        return max(1, math.ceil(ratio / math.log(self.cooling_rate)))

    @property
    def total_iterations(self) -> int:
        """Total inner-loop move iterations of the full schedule.

        The budget unit of the suspend/resume seam and the portfolio
        racer's rungs: every temperature step proposes exactly
        ``iterations_per_temperature`` candidates on every engine (the
        batch engine evaluates ``batch_size`` lanes *per iteration*,
        which is its arm's privilege, not a different budget unit).
        """
        return self.temperature_steps * self.iterations_per_temperature


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
        ``"incremental"`` (default) or ``"batch"`` — see the module
        docstring.
    verify:
        Incremental engine only: after every accepted move, check the
        workspace against a from-scratch Eq. 3 evaluation — a bit-exact
        full pass, the running estimate inside its guard band, the
        move's delta within ``1e-9`` of the realised change — and the
        occupancy structures against the blocks.  Does not change the
        walk.  Slow; meant for tests and debugging.
    """
    if engine not in PLACEMENT_ENGINES:
        raise PlacementError(
            f"unknown placement engine {engine!r}; "
            f"expected one of {PLACEMENT_ENGINES}"
        )
    params = parameters or AnnealingParameters()
    if engine == "batch" and params.batch_size > 1:
        # Imported lazily: repro.place.batch imports this module.
        from repro.place.batch import anneal_batch

        rng = random.Random(seed)
        current = _initial_placement(grid, footprints, rng)
        result = anneal_batch(
            current, priorities, params, rng, instrumentation, verify=verify
        )
        result.seed = seed
        return result
    # The incremental engine, and the batch engine at batch_size=1 (its
    # degenerate case), run the resumable loop once to completion.
    checkpoint = anneal_start(
        grid, footprints, priorities, params, seed=seed, engine=engine
    )
    return checkpoint_result(
        _resume_incremental_checkpoint(
            checkpoint, priorities, params, None, instrumentation,
            verify=verify,
        )
    )


def _initial_placement(
    grid: ChipGrid, footprints: dict[str, tuple[int, int]], rng: random.Random
) -> Placement:
    """The seeded random starting placement (Algorithm 2 line 1)."""
    current = random_placement(grid, footprints, rng)
    if current is None:
        raise PlacementError(
            f"could not find an initial legal placement of "
            f"{len(footprints)} components on a "
            f"{grid.width}x{grid.height} grid"
        )
    return current


def _flush_step(
    instrumentation: Instrumentation | None,
    temperature: float,
    energy: float,
    best_energy: float,
    step_trials: int,
    step_accepted: int,
    elapsed: float = 0.0,
) -> None:
    """Per-temperature instrumentation flush shared by the engines."""
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


# ----------------------------------------------------------------------
# Suspend/resume seam (the portfolio racer's checkpoint substrate)
# ----------------------------------------------------------------------
@dataclass
class AnnealCheckpoint:
    """Picklable suspended state of one anneal, pausable at step bounds.

    Captures everything the move loop needs to continue bit-exactly:
    the placement, the python RNG state (and the batch kernel's PCG64
    state), the temperature, and the step/iteration counters.  Pauses
    happen only at temperature-step boundaries, where the incremental
    loop reads the workspace's exact energy (a full pass, bit-identical
    to a from-scratch evaluation) and a resumed workspace starts from
    the same full pass, so an anneal split across any number of
    suspend/resume cycles walks the *identical* trajectory as an
    uninterrupted run — the property the resume parity tests pin and
    the racer's determinism contract stands on.

    ``iterations_done`` counts inner-loop move iterations
    (``steps_done * Imax``) — the budget unit of the racer's rungs.
    """

    engine: str
    seed: int
    temperature: float
    steps_done: int
    iterations_done: int
    rng_state: tuple
    #: PCG64 ``bit_generator.state`` of the batch kernel, ``None`` for
    #: the incremental engine.
    np_rng_state: dict | None
    placement: Placement
    best_placement: Placement
    current_energy: float
    best_energy: float
    initial_energy: float
    accepted_moves: int
    trials: int
    energy_trace: list[float]
    finished: bool = False


#: Engines the checkpoint seam supports: every placement engine.
RESUMABLE_ENGINES = PLACEMENT_ENGINES


def anneal_start(
    grid: ChipGrid,
    footprints: dict[str, tuple[int, int]],
    priorities: ConnectionPriorities,
    parameters: AnnealingParameters | None = None,
    seed: int = 0,
    engine: str = "incremental",
    initial: Placement | None = None,
) -> AnnealCheckpoint:
    """Build the step-zero checkpoint of a resumable anneal.

    *initial* supplies the starting placement (e.g. the greedy-BA
    construction for a ``init=greedy`` portfolio arm); ``None`` samples
    the seeded random placement through the exact RNG draws of
    :func:`anneal_placement`, so a resumable run started here and run
    to completion without pauses reproduces the one-shot engines bit
    for bit.
    """
    params = parameters or AnnealingParameters()
    if engine not in RESUMABLE_ENGINES:
        raise PlacementError(
            f"checkpointable annealing supports engines "
            f"{RESUMABLE_ENGINES}, got {engine!r}"
        )
    rng = random.Random(seed)
    if initial is not None:
        if initial.grid is not grid and (
            initial.grid.width != grid.width
            or initial.grid.height != grid.height
        ):
            raise PlacementError(
                "initial placement was built for a different grid"
            )
        if not initial.is_legal():
            raise PlacementError(
                "initial placement for a resumable anneal must be legal"
            )
        current = initial
    else:
        current = _initial_placement(grid, footprints, rng)
    energy = placement_energy(current, priorities)
    np_state: dict | None = None
    if engine == "batch" and params.batch_size > 1:
        # Same draw position as anneal_batch: the 64-bit numpy seed is
        # taken right after the initial placement.
        from repro.place.batch import numpy_rng_state

        np_state = numpy_rng_state(rng.getrandbits(64))
    return AnnealCheckpoint(
        engine=engine,
        seed=seed,
        temperature=params.initial_temperature,
        steps_done=0,
        iterations_done=0,
        rng_state=rng.getstate(),
        np_rng_state=np_state,
        placement=current,
        best_placement=current,
        current_energy=energy,
        best_energy=energy,
        initial_energy=energy,
        accepted_moves=0,
        trials=0,
        energy_trace=[],
        finished=False,
    )


def anneal_resume(
    checkpoint: AnnealCheckpoint,
    priorities: ConnectionPriorities,
    parameters: AnnealingParameters | None = None,
    until_iterations: int | None = None,
    instrumentation: Instrumentation | None = None,
) -> AnnealCheckpoint:
    """Advance a suspended anneal to *until_iterations* (or completion).

    The budget is a *cumulative* inner-loop iteration count; the loop
    pauses at the first temperature-step boundary at or past it, so a
    fixed budget sequence yields the same suspension points — and hence
    the same trajectory — no matter how the work is sliced.  A
    checkpoint that already satisfies the budget (or already finished)
    is returned unchanged.
    """
    params = parameters or AnnealingParameters()
    if checkpoint.finished or (
        until_iterations is not None
        and checkpoint.iterations_done >= until_iterations
    ):
        return checkpoint
    if checkpoint.engine == "batch" and params.batch_size > 1:
        from repro.place.batch import resume_batch

        return resume_batch(
            checkpoint, priorities, params, until_iterations, instrumentation
        )
    return _resume_incremental_checkpoint(
        checkpoint, priorities, params, until_iterations, instrumentation
    )


def checkpoint_result(checkpoint: AnnealCheckpoint) -> AnnealingResult:
    """The :class:`AnnealingResult` view of a (possibly paused) anneal."""
    return AnnealingResult(
        placement=checkpoint.best_placement,
        energy=checkpoint.best_energy,
        initial_energy=checkpoint.initial_energy,
        accepted_moves=checkpoint.accepted_moves,
        trials=checkpoint.trials,
        energy_trace=list(checkpoint.energy_trace),
        seed=checkpoint.seed,
    )


def _resume_incremental_checkpoint(
    cp: AnnealCheckpoint,
    priorities: ConnectionPriorities,
    params: AnnealingParameters,
    until_iterations: int | None,
    instrumentation: Instrumentation | None,
    verify: bool = False,
) -> AnnealCheckpoint:
    """The incremental move loop over a rebuilt workspace.

    The only incremental step loop: :func:`anneal_placement` runs it
    once to completion, :func:`anneal_resume` in budgeted slices.  The
    workspace energy after reconstruction is bit-identical to the
    suspended value because both are full-pass evaluations over the
    same blocks.  With *verify*, every accepted move is re-checked
    against the from-scratch oracle (see :func:`_verify_commit`).
    """
    workspace = PlacementWorkspace(cp.placement, priorities)
    rng = random.Random()
    rng.setstate(cp.rng_state)
    propose = workspace.move_sampler(rng, params.move_weights)
    draw = rng.random
    commit = workspace.commit
    exact_delta = workspace.exact_delta
    exp = math.exp
    current_energy = workspace.energy
    verified_energy = workspace.check_consistency() if verify else 0.0
    best_energy = cp.best_energy
    best_blocks = {
        cid: cp.best_placement.block(cid)
        for cid in cp.best_placement.components()
    }
    accepted = cp.accepted_moves
    trials = cp.trials
    trace = list(cp.energy_trace)
    temperature = cp.temperature
    steps_done = cp.steps_done
    iterations_done = cp.iterations_done
    while temperature > params.min_temperature and (
        until_iterations is None or iterations_done < until_iterations
    ):
        step_started = perf_counter()
        step_accepted = 0
        step_trials = 0
        for _ in range(params.iterations_per_temperature):
            pending = propose()
            if pending is None:
                continue
            step_trials += 1
            delta = pending.delta
            if -_EXACT_DELTA_THRESHOLD < delta < _EXACT_DELTA_THRESHOLD:
                delta = exact_delta(pending)
            if delta < 0 or draw() < exp(-delta / temperature):
                commit(pending)
                step_accepted += 1
                if verify:
                    verified_energy = _verify_commit(
                        workspace, pending, verified_energy
                    )
                # Outside the guard band the exact energy cannot beat
                # the best, so only a read inside it pays a full pass.
                if workspace.estimate < best_energy + workspace.slack:
                    current_energy = workspace.energy
                    if current_energy < best_energy:
                        best_energy = current_energy
                        best_blocks = workspace.snapshot_blocks()
        current_energy = workspace.energy
        accepted += step_accepted
        trials += step_trials
        trace.append(current_energy)
        _flush_step(
            instrumentation, temperature, current_energy, best_energy,
            step_trials, step_accepted, perf_counter() - step_started,
        )
        temperature *= params.cooling_rate
        steps_done += 1
        iterations_done += params.iterations_per_temperature
    finished = temperature <= params.min_temperature
    if finished:
        _flush_final(instrumentation, cp.initial_energy, best_energy)
    return AnnealCheckpoint(
        engine=cp.engine,
        seed=cp.seed,
        temperature=temperature,
        steps_done=steps_done,
        iterations_done=iterations_done,
        rng_state=rng.getstate(),
        np_rng_state=cp.np_rng_state,
        placement=workspace.snapshot(),
        best_placement=Placement(workspace.grid, best_blocks),
        current_energy=current_energy,
        best_energy=best_energy,
        initial_energy=cp.initial_energy,
        accepted_moves=accepted,
        trials=trials,
        energy_trace=trace,
        finished=finished,
    )


def _verify_commit(
    workspace: PlacementWorkspace, pending: PendingMove, energy_before: float
) -> float:
    """Re-check one accepted move against the from-scratch oracle.

    Asserts the workspace invariants (occupancy, rectangles, centres,
    legality, a bit-exact full pass, the estimate inside its guard
    band) and that the proposal's incident-nets delta agrees with the
    realised change within ``1e-9``.  Returns the new oracle energy.
    """
    energy_after = workspace.check_consistency()
    realised = energy_after - energy_before
    if abs(pending.delta - realised) > 1e-9:
        raise PlacementError(
            f"delta estimate {pending.delta!r} disagrees "
            f"with realised change {realised!r}"
        )
    return energy_after
