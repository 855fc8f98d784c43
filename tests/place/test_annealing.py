"""Unit tests for the simulated-annealing placer."""

import pytest

from repro.errors import PlacementError
from repro.place.annealing import (
    AnnealingParameters,
    anneal_placement,
)
from repro.place.energy import ConnectionPriorities, placement_energy
from repro.place.grid import ChipGrid

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


class TestAnnealingParameters:
    def test_paper_defaults(self):
        params = AnnealingParameters()
        assert params.initial_temperature == 10_000.0
        assert params.min_temperature == 1.0
        assert params.cooling_rate == 0.9
        assert params.iterations_per_temperature == 150

    def test_temperature_steps(self):
        # 10000 * 0.9^n <= 1  =>  n >= 87.4.
        assert AnnealingParameters().temperature_steps == 88

    def test_temperature_steps_follow_the_float_products(self):
        # log(1e-5) / log(0.1) is 5.000000000000001, whose ceiling is 6,
        # but five products take 10000.0 to exactly 0.1: the loop ends.
        params = AnnealingParameters(
            initial_temperature=10_000.0,
            min_temperature=0.1,
            cooling_rate=0.1,
            iterations_per_temperature=1,
        )
        assert params.temperature_steps == 5
        result = anneal_placement(
            ChipGrid(12, 12), FOOTPRINTS, PRIORITIES, params, seed=0
        )
        assert len(result.energy_trace) == 5

    def test_invalid_cooling_rate(self):
        with pytest.raises(PlacementError):
            AnnealingParameters(cooling_rate=1.0)

    def test_invalid_temperatures(self):
        with pytest.raises(PlacementError):
            AnnealingParameters(initial_temperature=1.0, min_temperature=5.0)
        with pytest.raises(PlacementError):
            AnnealingParameters(min_temperature=0.0)

    def test_invalid_imax(self):
        with pytest.raises(PlacementError):
            AnnealingParameters(iterations_per_temperature=0)


class TestAnnealing:
    def test_returns_legal_placement(self):
        result = anneal_placement(
            ChipGrid(12, 12), FOOTPRINTS, PRIORITIES, FAST, seed=0
        )
        assert result.placement.is_legal()
        assert set(result.placement.components()) == set(FOOTPRINTS)

    def test_energy_matches_placement(self):
        result = anneal_placement(
            ChipGrid(12, 12), FOOTPRINTS, PRIORITIES, FAST, seed=0
        )
        assert result.energy == pytest.approx(
            placement_energy(result.placement, PRIORITIES)
        )

    def test_never_worse_than_initial(self):
        result = anneal_placement(
            ChipGrid(12, 12), FOOTPRINTS, PRIORITIES, FAST, seed=0
        )
        assert result.energy <= result.initial_energy

    def test_deterministic_per_seed(self):
        a = anneal_placement(ChipGrid(12, 12), FOOTPRINTS, PRIORITIES, FAST, seed=9)
        b = anneal_placement(ChipGrid(12, 12), FOOTPRINTS, PRIORITIES, FAST, seed=9)
        assert a.energy == b.energy
        for cid in FOOTPRINTS:
            assert a.placement.block(cid) == b.placement.block(cid)

    def test_seeds_differ(self):
        a = anneal_placement(ChipGrid(12, 12), FOOTPRINTS, PRIORITIES, FAST, seed=1)
        b = anneal_placement(ChipGrid(12, 12), FOOTPRINTS, PRIORITIES, FAST, seed=2)
        differs = any(
            a.placement.block(cid) != b.placement.block(cid) for cid in FOOTPRINTS
        )
        assert differs

    def test_high_priority_pair_ends_close(self):
        result = anneal_placement(
            ChipGrid(14, 14), FOOTPRINTS, PRIORITIES, FAST, seed=4
        )
        placement = result.placement
        hot = placement.manhattan_distance("Mixer1", "Mixer2")
        # Both mixers pulled together relative to the grid diagonal.
        assert hot < 14

    def test_impossible_grid_raises(self):
        with pytest.raises(PlacementError, match="initial legal placement"):
            anneal_placement(ChipGrid(4, 4), FOOTPRINTS, PRIORITIES, FAST, seed=0)

    def test_trace_and_counters(self):
        result = anneal_placement(
            ChipGrid(12, 12), FOOTPRINTS, PRIORITIES, FAST, seed=0
        )
        assert result.trials > 0
        assert 0.0 <= result.acceptance_ratio <= 1.0
        assert len(result.energy_trace) >= 1
