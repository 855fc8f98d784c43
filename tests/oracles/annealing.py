"""Reference immutable SA move loop (Algorithm 2, lines 1–8): an oracle.

Every trial builds a new :class:`~repro.place.placement.Placement`
(:func:`tests.oracles.moves.random_move`), and every candidate is scored
by a full Eq. 3 evaluation.  The production kernel,
:meth:`~repro.place.incremental.PlacementWorkspace.anneal_step`, must
walk the identical trajectory for a shared seed: the parity suites
compare a whole anneal with :func:`anneal_reference` and one
temperature step with :func:`anneal_step_reference`.
"""

from __future__ import annotations

import math
import random
from time import perf_counter

from repro.errors import PlacementError
from repro.obs.instrument import Instrumentation
from repro.place.annealing import (
    AnnealingParameters,
    AnnealingResult,
    _flush_final,
    _flush_step,
)
from repro.place.energy import ConnectionPriorities, placement_energy
from repro.place.grid import ChipGrid
from repro.place.moves import random_placement
from repro.place.placement import Placement
from tests.oracles.moves import random_move

__all__ = ["anneal_reference", "anneal_step_reference"]


def anneal_reference(
    grid: ChipGrid,
    footprints: dict[str, tuple[int, int]],
    priorities: ConnectionPriorities,
    parameters: AnnealingParameters | None = None,
    seed: int = 0,
    instrumentation: Instrumentation | None = None,
) -> AnnealingResult:
    """Anneal like :func:`repro.place.anneal_placement`, recomputing the
    full Eq. 3 energy of a new placement on every trial."""
    params = parameters or AnnealingParameters()
    rng = random.Random(seed)
    current = random_placement(grid, footprints, rng)
    if current is None:
        raise PlacementError("could not find an initial legal placement")
    current_energy = placement_energy(current, priorities)
    best, best_energy = current, current_energy
    initial_energy = current_energy

    accepted = 0
    trials = 0
    trace: list[float] = []
    temperature = params.initial_temperature
    while temperature > params.min_temperature:
        step_started = perf_counter()
        current, current_energy, step_trials, step_accepted, best_energy, found = (
            anneal_step_reference(
                current, current_energy, priorities, rng, temperature,
                params.iterations_per_temperature, best_energy,
            )
        )
        if found is not None:
            best = found
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
        placement=best,
        energy=best_energy,
        initial_energy=initial_energy,
        accepted_moves=accepted,
        trials=trials,
        energy_trace=trace,
        seed=seed,
    )


def anneal_step_reference(
    current: Placement,
    current_energy: float,
    priorities: ConnectionPriorities,
    rng: random.Random,
    temperature: float,
    iterations: int,
    best_energy: float,
) -> tuple[Placement, float, int, int, float, Placement | None]:
    """One temperature step of the immutable loop: *iterations* trials.

    Returns ``(current, current_energy, trials, accepted, best_energy,
    best)``, where ``best`` is the step's last placement below the
    given *best_energy*, or ``None`` when the step found none — the
    oracle of :meth:`~repro.place.incremental.PlacementWorkspace.anneal_step`.
    """
    best = None
    trials = 0
    accepted = 0
    for _ in range(iterations):
        candidate = random_move(current, rng)
        if candidate is None:
            continue
        trials += 1
        candidate_energy = placement_energy(candidate, priorities)
        delta = candidate_energy - current_energy
        if delta < 0 or rng.random() < math.exp(-delta / temperature):
            current, current_energy = candidate, candidate_energy
            accepted += 1
            if current_energy < best_energy:
                best, best_energy = current, current_energy
    return current, current_energy, trials, accepted, best_energy, best
