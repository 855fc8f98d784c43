"""Unit tests for the numpy batch-move SA kernel (``engine="batch"``).

The contract has two regimes:

* ``batch_size=1`` is **bit-identical** to the incremental engine — it
  delegates to the same move loop, so placements, energies, traces, and
  trial counts must match exactly.
* ``batch_size>1`` has no bit-level contract; the gates are *legal
  result*, *exact reported energy* (a scalar Eq. 3 evaluation of the
  returned placement), *never worse than the run's own start*, and
  *deterministic for a given (seed, batch_size)*.  The per-lane swap
  delta (two single-move deltas plus the shared-net correction) is
  pinned against the full-energy oracle.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.place.annealing import AnnealingParameters, anneal_placement
from repro.place.batch import BatchWorkspace
from repro.place.energy import ConnectionPriorities, placement_energy
from repro.place.grid import ChipGrid
from repro.place.moves import random_placement

_np = pytest.importorskip("numpy")

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


def run(engine: str, batch_size: int = 16, seed: int = 7, verify: bool = False):
    params = dataclasses.replace(FAST, batch_size=batch_size)
    return anneal_placement(
        ChipGrid(10, 10), FOOTPRINTS, PRIORITIES,
        parameters=params, seed=seed, engine=engine, verify=verify,
    )


class TestBatchSizeOneBitIdentity:
    @pytest.mark.parametrize("seed", [0, 1, 7, 42])
    def test_identical_to_incremental(self, seed):
        batch = run("batch", batch_size=1, seed=seed)
        incremental = run("incremental", batch_size=1, seed=seed)
        assert batch.energy == incremental.energy
        assert batch.initial_energy == incremental.initial_energy
        assert batch.energy_trace == incremental.energy_trace
        assert batch.accepted_moves == incremental.accepted_moves
        assert batch.trials == incremental.trials
        assert batch.placement.blocks() == incremental.placement.blocks()


class TestBatchKernel:
    @pytest.mark.parametrize("batch_size", [2, 8, 16])
    def test_result_is_legal_and_exact(self, batch_size):
        result = run("batch", batch_size=batch_size, verify=True)
        assert result.placement.is_legal()
        exact = placement_energy(result.placement, PRIORITIES)
        assert result.energy == exact
        assert result.energy <= result.initial_energy + 1e-9

    def test_deterministic_per_seed_and_batch_size(self):
        first = run("batch", batch_size=8, seed=3)
        second = run("batch", batch_size=8, seed=3)
        assert first.energy == second.energy
        assert first.energy_trace == second.energy_trace
        assert first.placement.blocks() == second.placement.blocks()

    def test_trace_spans_every_temperature_step(self):
        result = run("batch", batch_size=8)
        assert len(result.energy_trace) == FAST.temperature_steps

    def test_counts_legal_candidates(self):
        # K candidates per iteration, most of them legal on a 10x10
        # grid: trials must exceed what a serial walk could propose.
        result = run("batch", batch_size=16)
        iterations = FAST.temperature_steps * FAST.iterations_per_temperature
        assert result.trials > iterations


class TestSwapCorrectionOracle:
    def _workspace(self, seed=11):
        rng = random.Random(seed)
        placement = random_placement(ChipGrid(10, 10), FOOTPRINTS, rng)
        assert placement is not None
        return BatchWorkspace(placement, PRIORITIES, 4, np_seed=123)

    def test_matches_full_energy_recompute(self):
        """delta(swap) == E(after) - E(before), for random legal swaps."""
        workspace = self._workspace()
        rng = random.Random(5)
        checked = 0
        while checked < 50:
            a, b = rng.sample(range(workspace.m), 2)
            a_arr = _np.array([a])
            b_arr = _np.array([b])
            # Swap origins, keep footprints: centres after the move.
            nax = workspace.bx[b] + (workspace.bw[a] - 1) / 2.0
            nay = workspace.by[b] + (workspace.bh[a] - 1) / 2.0
            nbx = workspace.bx[a] + (workspace.bw[b] - 1) / 2.0
            nby = workspace.by[a] + (workspace.bh[b] - 1) / 2.0
            delta = float(
                workspace._single_deltas(
                    a_arr, _np.array([nax]), _np.array([nay])
                )[0]
                + workspace._single_deltas(
                    b_arr, _np.array([nbx]), _np.array([nby])
                )[0]
                + workspace._swap_correction(
                    a_arr, b_arr,
                    _np.array([nax]), _np.array([nay]),
                    _np.array([nbx]), _np.array([nby]),
                )[0]
            )
            before = workspace.vector_energy()
            old = (
                workspace.cx[a], workspace.cy[a],
                workspace.cx[b], workspace.cy[b],
            )
            workspace.cx[a], workspace.cy[a] = nax, nay
            workspace.cx[b], workspace.cy[b] = nbx, nby
            after = workspace.vector_energy()
            (
                workspace.cx[a], workspace.cy[a],
                workspace.cx[b], workspace.cy[b],
            ) = old
            assert delta == pytest.approx(after - before, abs=1e-8)
            checked += 1


class TestBatchSizePlumbing:
    def test_synthesis_parameters_forward_batch_size(self):
        from repro.core.problem import SynthesisParameters

        params = SynthesisParameters(seed=1, sa_batch_size=4)
        assert params.annealing().batch_size == 4

    def test_cli_flag_reaches_parameters(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["PCR", "--batch-size", "32"])
        assert args.batch_size == 32

    def test_invalid_batch_size_rejected(self):
        from repro.errors import PlacementError

        with pytest.raises(PlacementError):
            AnnealingParameters(batch_size=0)


class TestBatchEndToEnd:
    def test_checker_clean_through_pipeline(self):
        from repro.benchmarks.registry import get_benchmark
        from repro.core.problem import SynthesisParameters, SynthesisProblem
        from repro.core.synthesizer import synthesize_problem

        case = get_benchmark("PCR")
        params = SynthesisParameters(
            initial_temperature=50.0,
            min_temperature=1.0,
            cooling_rate=0.7,
            iterations_per_temperature=25,
            seed=1,
            placement_engine="batch",
            sa_batch_size=8,
            check="strict",  # any design-rule violation raises
        )
        problem = SynthesisProblem(
            assay=case.assay, allocation=case.allocation, parameters=params
        )
        result = synthesize_problem(problem)
        assert result.routing.paths

    def test_k64_never_worse_than_incremental_on_scale200(self):
        """Best-of-64 at the paper's SA schedule ends no worse than the
        incremental engine from the same seed on the largest assay."""
        from repro.benchmarks.registry import get_benchmark
        from repro.core.problem import SynthesisParameters, SynthesisProblem
        from repro.place.energy import build_connection_priorities
        from repro.schedule.list_scheduler import schedule_assay

        case = get_benchmark("Scale200")
        params = SynthesisParameters(seed=1)
        problem = SynthesisProblem(
            assay=case.assay, allocation=case.allocation, parameters=params
        )
        schedule = schedule_assay(
            problem.assay, problem.allocation, params.transport_time
        )
        priorities = build_connection_priorities(
            schedule, beta=params.beta, gamma=params.gamma
        )
        grid = problem.resolved_grid()
        footprints = problem.footprints()
        annealing = params.annealing()
        incremental = anneal_placement(
            grid, footprints, priorities, annealing, seed=1
        )
        batch = anneal_placement(
            grid, footprints, priorities,
            dataclasses.replace(annealing, batch_size=64),
            seed=1, engine="batch",
        )
        assert batch.energy <= incremental.energy
        assert batch.placement.is_legal()
