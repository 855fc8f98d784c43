"""Unit tests for the problem definition and parameters."""

import pytest

from repro.assay.graph import Operation, OperationType, SequencingGraph
from repro.benchmarks.registry import get_benchmark
from repro.core.problem import (
    MAX_OPERATIONS,
    SynthesisParameters,
    SynthesisProblem,
)
from repro.components.allocation import Allocation
from repro.errors import AllocationError, ValidationError
from repro.place.grid import ChipGrid


def chain_assay(count: int) -> SequencingGraph:
    """A valid one-mixer assay: *count* mixes in a chain."""
    return SequencingGraph(
        f"chain{count}",
        [Operation(f"o{i}", OperationType.MIX, 1.0) for i in range(count)],
        [(f"o{i}", f"o{i + 1}") for i in range(count - 1)],
    )


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

    @pytest.mark.parametrize(
        "overrides",
        [
            # ~9.2e9 temperature steps: counting them all would hang.
            {"cooling_rate": 0.999999999,
             "iterations_per_temperature": 1_000_000_000},
            {"iterations_per_temperature": 1_000_000_000},
            {"cooling_rate": 0.9999},
            {"restarts": 101},
        ],
    )
    def test_sa_budget_over_the_trial_limit_rejected(self, overrides):
        import time

        started = time.perf_counter()
        with pytest.raises(ValidationError, match="trial limit"):
            SynthesisParameters(**overrides)
        assert time.perf_counter() - started < 1.0

    def test_sa_budget_at_the_trial_limit_accepted(self):
        from repro.core.problem import MAX_ANNEALING_TRIALS

        # The paper's schedule is 88 steps x Imax 150 = 13,200 trials,
        # so 100 restarts of it sit exactly on the limit.
        assert MAX_ANNEALING_TRIALS == 100 * 13_200
        params = SynthesisParameters(restarts=100)
        steps = params.annealing().temperature_steps
        assert steps * 150 * 100 == MAX_ANNEALING_TRIALS
        # An unchanged default keeps the default problem digest.
        assert SynthesisParameters().annealing().temperature_steps == 88


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

    def test_grid_over_the_cell_cap_rejected(self):
        from repro.benchmarks.registry import benchmark_names
        from repro.core.problem import MAX_GRID_CELLS

        case = get_benchmark("PCR")
        # A near-zero fill ratio once auto-sized PCR to 134165 x 134165.
        with pytest.raises(ValidationError, match="cell limit"):
            SynthesisProblem(
                assay=case.assay,
                allocation=case.allocation,
                parameters=SynthesisParameters(grid_fill_ratio=1e-9),
            )
        with pytest.raises(ValidationError, match="cell limit"):
            SynthesisProblem(
                assay=case.assay, allocation=Allocation(mixers=10**6)
            )
        with pytest.raises(ValidationError, match="cell limit"):
            SynthesisProblem(
                assay=case.assay,
                allocation=case.allocation,
                grid=ChipGrid(257, 256),
            )
        at_cap = SynthesisProblem(
            assay=case.assay,
            allocation=case.allocation,
            grid=ChipGrid(256, 256),
        )
        assert at_cap.resolved_grid().cell_count == MAX_GRID_CELLS
        # Every registered benchmark, and a large hand-made allocation,
        # stays well inside the cap.
        for name in benchmark_names():
            other = get_benchmark(name)
            SynthesisProblem(assay=other.assay, allocation=other.allocation)
        large = SynthesisProblem(
            assay=case.assay, allocation=Allocation(100, 50, 50, 30)
        )
        assert large.resolved_grid().width == 58

    def test_operation_count_over_the_limit_rejected(self):
        from repro.benchmarks.registry import benchmark_names

        with pytest.raises(ValidationError, match="1000-operation limit"):
            SynthesisProblem(
                assay=chain_assay(MAX_OPERATIONS + 1),
                allocation=Allocation(mixers=1),
            )
        at_limit = SynthesisProblem(
            assay=chain_assay(MAX_OPERATIONS), allocation=Allocation(mixers=1)
        )
        assert len(at_limit.assay) == MAX_OPERATIONS
        # Every registered benchmark, Scale200 included, stays inside it.
        largest = max(
            len(get_benchmark(name).assay) for name in benchmark_names()
        )
        assert largest == 200
        assert 400 < MAX_OPERATIONS
