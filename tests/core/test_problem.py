"""Unit tests for the problem definition and parameters."""

import pytest

from repro.benchmarks.registry import get_benchmark
from repro.core.problem import SynthesisParameters, SynthesisProblem
from repro.components.allocation import Allocation
from repro.errors import AllocationError, ValidationError
from repro.place.grid import ChipGrid


class TestSynthesisParameters:
    def test_paper_defaults(self):
        params = SynthesisParameters()
        assert params.transport_time == 2.0
        assert params.beta == 0.6
        assert params.gamma == 0.4
        assert params.initial_temperature == 10_000.0
        assert params.min_temperature == 1.0
        assert params.cooling_rate == 0.9
        assert params.iterations_per_temperature == 150
        assert params.initial_cell_weight == 10.0

    def test_annealing_subset(self):
        params = SynthesisParameters(initial_temperature=500.0)
        annealing = params.annealing()
        assert annealing.initial_temperature == 500.0
        assert annealing.cooling_rate == params.cooling_rate

    def test_invalid_values_rejected(self):
        with pytest.raises(ValidationError):
            SynthesisParameters(transport_time=-1.0)
        with pytest.raises(ValidationError):
            SynthesisParameters(beta=-0.1)
        with pytest.raises(ValidationError):
            SynthesisParameters(initial_cell_weight=-5.0)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"cooling_rate": 1.0},
            {"iterations_per_temperature": 0},
            {"initial_temperature": float("inf")},
            {"min_temperature": float("nan")},
            {"grid_fill_ratio": 0},
            {"grid_fill_ratio": -1},
            {"grid_fill_ratio": 1.5},
            {"cell_pitch_mm": 0},
            {"cell_pitch_mm": float("inf")},
            {"transport_time": float("nan")},
            {"beta": float("inf")},
            {"gamma": float("nan")},
            {"initial_cell_weight": float("inf")},
        ],
    )
    def test_out_of_range_values_rejected(self, overrides):
        # Rejected at construction, so the service answers 400 instead
        # of queueing a job that can only fail (or degenerate) later.
        with pytest.raises(ValidationError):
            SynthesisParameters(**overrides)

    def test_route_engine_default_and_validation(self):
        assert SynthesisParameters().route_engine == "flat"
        for removed in ("flat2", "reference", "quantum"):
            with pytest.raises(ValidationError, match="route engine"):
                SynthesisParameters(route_engine=removed)
        with pytest.raises(ValidationError, match="placement engine"):
            SynthesisParameters(placement_engine="reference")

    def test_parallel_defaults_are_serial(self):
        params = SynthesisParameters()
        assert params.restarts == 1
        assert params.jobs == 1

    def test_invalid_parallel_values_rejected(self):
        with pytest.raises(ValidationError, match="restarts"):
            SynthesisParameters(restarts=0)
        with pytest.raises(ValidationError, match="jobs"):
            SynthesisParameters(jobs=-1)
        # jobs=0 means "one worker per CPU" and is accepted.
        assert SynthesisParameters(jobs=0).jobs == 0


class TestSynthesisProblem:
    def test_validates_assay_against_allocation(self):
        case = get_benchmark("IVD")
        with pytest.raises(AllocationError):
            SynthesisProblem(assay=case.assay, allocation=Allocation(mixers=3))

    def test_auto_grid_square_and_sufficient(self):
        case = get_benchmark("CPA")
        problem = SynthesisProblem(assay=case.assay, allocation=case.allocation)
        grid = problem.resolved_grid()
        assert grid.width == grid.height
        component_area = sum(
            w * h for w, h in problem.footprints().values()
        )
        assert grid.cell_count >= component_area * 4  # fill <= 0.25

    def test_explicit_grid_kept(self):
        case = get_benchmark("PCR")
        grid = ChipGrid(20, 20)
        problem = SynthesisProblem(
            assay=case.assay, allocation=case.allocation, grid=grid
        )
        assert problem.resolved_grid() is grid

    def test_footprints_cover_allocation(self):
        case = get_benchmark("IVD")
        problem = SynthesisProblem(assay=case.assay, allocation=case.allocation)
        footprints = problem.footprints()
        assert set(footprints) == set(case.allocation.component_ids())
        assert footprints["Mixer1"] == (3, 2)
        assert footprints["Detector1"] == (1, 1)
