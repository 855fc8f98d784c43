"""Tests for the suspend/resume seam of the SA engines.

The contract the portfolio racer depends on: an anneal paused at any
temperature-step boundary and resumed — once or many times, in any
chop pattern — walks **bit-identically** to the uninterrupted run.
Both resumable engines carry it: the incremental engine exactly (its
checkpoints rebuild the workspace from the placement, whose energy is
a full-pass recompute), and the batch engine via its stored numpy
generator state.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.errors import PlacementError
from repro.place.annealing import (
    RESUMABLE_ENGINES,
    AnnealingParameters,
    anneal_placement,
    anneal_resume,
    anneal_start,
    checkpoint_result,
)
from repro.place.energy import ConnectionPriorities
from repro.place.grid import ChipGrid
from repro.place.moves import random_placement
from tests.oracles.annealing import anneal_reference

FOOTPRINTS = {
    "Mixer1": (3, 2),
    "Mixer2": (3, 2),
    "Heater1": (2, 1),
    "Detector1": (1, 1),
}

PRIORITIES = ConnectionPriorities(
    priorities={
        ("Mixer1", "Mixer2"): 5.0,
        ("Heater1", "Mixer1"): 2.0,
        ("Detector1", "Heater1"): 1.0,
    }
)

FAST = AnnealingParameters(
    initial_temperature=50.0,
    min_temperature=1.0,
    cooling_rate=0.7,
    iterations_per_temperature=30,
)

GRID = ChipGrid(10, 10)


def _params(engine: str, **overrides) -> AnnealingParameters:
    batch = overrides.pop("batch_size", 8 if engine == "batch" else 1)
    return dataclasses.replace(FAST, batch_size=batch, **overrides)


def _run_chopped(engine: str, seed: int, chop: int, **overrides):
    """Resume in slices of *chop* temperature steps until finished."""
    params = _params(engine, **overrides)
    cp = anneal_start(
        GRID, FOOTPRINTS, PRIORITIES, params, seed=seed, engine=engine
    )
    step = max(1, chop) * params.iterations_per_temperature
    while not cp.finished:
        cp = anneal_resume(
            cp, PRIORITIES, params,
            until_iterations=cp.iterations_done + step,
        )
    return checkpoint_result(cp)


class TestResumeBitParity:
    @pytest.mark.parametrize("engine", RESUMABLE_ENGINES)
    @pytest.mark.parametrize("chop", [1, 2, 3])
    def test_chopped_equals_uninterrupted(self, engine, chop):
        params = _params(engine)
        full = anneal_placement(
            GRID, FOOTPRINTS, PRIORITIES, params, seed=7, engine=engine
        )
        chopped = _run_chopped(engine, seed=7, chop=chop)
        assert chopped.energy == full.energy
        assert chopped.initial_energy == full.initial_energy
        assert chopped.energy_trace == full.energy_trace
        assert chopped.accepted_moves == full.accepted_moves
        assert chopped.trials == full.trials
        assert chopped.placement.blocks() == full.placement.blocks()
        assert chopped.seed == full.seed

    @pytest.mark.parametrize("chop", [1, 3])
    def test_chopped_incremental_equals_reference_oracle(self, chop):
        """Suspend/resume keeps the incremental walk on the oracle's."""
        oracle = anneal_reference(
            GRID, FOOTPRINTS, PRIORITIES, _params("incremental"), seed=7
        )
        chopped = _run_chopped("incremental", seed=7, chop=chop)
        assert chopped.energy == oracle.energy
        assert chopped.energy_trace == oracle.energy_trace
        assert chopped.placement.blocks() == oracle.placement.blocks()

    def test_single_resume_runs_to_completion(self):
        cp = anneal_start(
            GRID, FOOTPRINTS, PRIORITIES, _params("incremental"), seed=3
        )
        done = anneal_resume(cp, PRIORITIES, _params("incremental"))
        assert done.finished
        full = anneal_placement(
            GRID, FOOTPRINTS, PRIORITIES, _params("incremental"), seed=3
        )
        assert checkpoint_result(done).energy == full.energy

    def test_weighted_moves_resume_deterministically(self):
        kwargs = dict(move_weights=(2.0, 1.0, 1.0))
        a = _run_chopped("incremental", seed=5, chop=1, **kwargs)
        b = _run_chopped("incremental", seed=5, chop=3, **kwargs)
        assert a.energy == b.energy
        assert a.placement.blocks() == b.placement.blocks()

    def test_prebuilt_initial_placement_is_honoured(self):
        import random as random_module

        initial = random_placement(
            GRID, FOOTPRINTS, random_module.Random(99)
        )
        cp = anneal_start(
            GRID, FOOTPRINTS, PRIORITIES, _params("incremental"),
            seed=7, initial=initial,
        )
        assert cp.initial_energy == pytest.approx(
            checkpoint_result(
                anneal_resume(cp, PRIORITIES, _params("incremental"))
            ).initial_energy
        )


class TestCheckpointSurface:
    def test_resume_past_finish_is_a_noop(self):
        cp = anneal_start(
            GRID, FOOTPRINTS, PRIORITIES, _params("incremental"), seed=1
        )
        done = anneal_resume(cp, PRIORITIES, _params("incremental"))
        again = anneal_resume(done, PRIORITIES, _params("incremental"))
        assert again is done

    def test_budget_already_met_returns_unchanged(self):
        cp = anneal_start(
            GRID, FOOTPRINTS, PRIORITIES, _params("incremental"), seed=1
        )
        paused = anneal_resume(
            cp, PRIORITIES, _params("incremental"), until_iterations=60
        )
        same = anneal_resume(
            paused, PRIORITIES, _params("incremental"),
            until_iterations=paused.iterations_done,
        )
        assert same is paused

    def test_pause_lands_on_temperature_step_boundary(self):
        params = _params("incremental")
        cp = anneal_start(
            GRID, FOOTPRINTS, PRIORITIES, params, seed=2
        )
        paused = anneal_resume(
            cp, PRIORITIES, params, until_iterations=45
        )
        # 45 is mid-step (imax=30): the engine overshoots to the next
        # boundary rather than splitting a temperature step.
        assert paused.iterations_done % params.iterations_per_temperature == 0
        assert paused.iterations_done >= 45

    def test_reference_engine_not_resumable(self):
        with pytest.raises(PlacementError, match="engine"):
            anneal_start(
                GRID, FOOTPRINTS, PRIORITIES, _params("incremental"),
                seed=1, engine="reference",
            )

    def test_illegal_initial_rejected(self):
        import random as random_module

        initial = random_placement(GRID, FOOTPRINTS, random_module.Random(1))
        with pytest.raises(PlacementError):
            anneal_start(
                ChipGrid(30, 30), FOOTPRINTS, PRIORITIES,
                _params("incremental"), seed=1, initial=initial,
            )
