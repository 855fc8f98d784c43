"""Reference immutable SA move loop (Algorithm 2, lines 1–8): an oracle.

Every trial builds a new :class:`~repro.place.placement.Placement`
(:func:`~repro.place.moves.random_move`), and every candidate is scored
by a full Eq. 3 evaluation.  The production incremental engine must
walk the identical trajectory for a shared seed; the parity suites
compare the two.
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
from repro.place.moves import random_move, random_placement

__all__ = ["anneal_reference"]


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
    if params.move_weights is not None:
        raise PlacementError("the reference sampler is uniform")
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
        step_accepted = 0
        step_trials = 0
        for _ in range(params.iterations_per_temperature):
            candidate = random_move(current, rng)
            if candidate is None:
                continue
            step_trials += 1
            candidate_energy = placement_energy(candidate, priorities)
            delta = candidate_energy - current_energy
            if delta < 0 or rng.random() < math.exp(-delta / temperature):
                current, current_energy = candidate, candidate_energy
                step_accepted += 1
                if current_energy < best_energy:
                    best, best_energy = current, current_energy
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
