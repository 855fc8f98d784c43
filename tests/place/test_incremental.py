"""Tests for the incremental annealing workspace and engine parity.

The contract under test (see ``repro/place/incremental.py``): the
workspace's exact energy is at all times *bit-identical* to a
from-scratch :func:`placement_energy`, the kernel's incident-nets
deltas agree with the realised change within ``1e-9``, its bitset
legality test agrees with ``Placement.is_legal`` and the occupancy
bitset always matches the blocks, and a seeded kernel step or whole
annealing run walks the identical trajectory as the immutable reference
loop of :mod:`tests.oracles.annealing`.
"""

from __future__ import annotations

import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchmarks.registry import get_benchmark
from repro.core.problem import MAX_GRID_CELLS, SynthesisProblem
from repro.errors import PlacementError
from repro.place.annealing import (
    AnnealingParameters,
    _commit_checker,
    anneal_placement,
)
from repro.place.energy import (
    ConnectionPriorities,
    build_connection_priorities,
    placement_energy,
)
from repro.place.grid import ChipGrid
from repro.place.incremental import PlacementWorkspace
from repro.place.moves import random_placement
from repro.place.placement import PlacedComponent, Placement
from repro.schedule import schedule_assay
from tests.oracles.annealing import anneal_reference, anneal_step_reference

GRID = ChipGrid(12, 12)

FOOTPRINTS = {
    "Mixer1": (3, 2),
    "Mixer2": (3, 2),
    "Heater1": (2, 1),
    "Detector1": (1, 1),
    "Filter1": (2, 2),
}

PRIORITIES = ConnectionPriorities(
    priorities={
        ("Mixer1", "Mixer2"): 5.0,
        ("Heater1", "Mixer1"): 2.0,
        ("Detector1", "Heater1"): 1.0,
        ("Filter1", "Mixer2"): 0.8,
    }
)

FAST = AnnealingParameters(
    initial_temperature=50.0,
    min_temperature=1.0,
    cooling_rate=0.7,
    iterations_per_temperature=25,
)


def make_workspace(seed: int = 0):
    rng = random.Random(seed)
    placement = random_placement(GRID, FOOTPRINTS, rng)
    assert placement is not None
    return PlacementWorkspace(placement, PRIORITIES), rng


class TestWorkspaceBasics:
    def test_requires_legal_placement(self):
        overlapping = Placement(
            GRID,
            {
                "Mixer1": PlacedComponent("Mixer1", 0, 0, 3, 2),
                "Mixer2": PlacedComponent("Mixer2", 1, 0, 3, 2),
            },
        )
        with pytest.raises(PlacementError):
            PlacementWorkspace(overlapping, PRIORITIES)

    def test_initial_energy_matches_oracle(self):
        workspace, _ = make_workspace()
        assert workspace.energy == placement_energy(
            workspace.snapshot(), PRIORITIES
        )

    def test_snapshot_is_independent(self):
        workspace, rng = make_workspace()
        snapshot = workspace.snapshot()
        blocks_before = {cid: snapshot.block(cid) for cid in snapshot.components()}
        _trials, accepted, _best, _blocks = workspace.anneal_step(
            rng, 1000.0, 20, workspace.energy
        )
        assert accepted > 0
        assert workspace.snapshot_blocks() != blocks_before
        # The earlier snapshot must not see the mutation.
        assert {
            cid: snapshot.block(cid) for cid in snapshot.components()
        } == blocks_before


def _edge_biased(low: int, high: int, *extra: int):
    """Integers in ``[low, high]``, drawing the ends (and *extra*) often."""
    return st.sampled_from(sorted({low, high, *extra})) | st.integers(
        low, high
    )


@st.composite
def flush_placements(draw):
    """A legal placement on a random (often non-square) 3–24-cell grid.

    Footprints mix 1×1 blocks, blocks one cell short of the grid and
    blocks whose transpose spans it fully.  The first block sits in the
    ``x = 0, y = 0`` corner and the second, when it fits, flush against
    ``x + w = W`` and ``y + h = H``; the rest prefer the edges too.
    """
    width = draw(st.integers(3, 24), label="width")
    height = draw(st.integers(3, 24), label="height")
    blocks: dict[str, PlacedComponent] = {}
    for k in range(draw(st.integers(1, 6), label="count")):
        w = draw(_edge_biased(1, width - 1, min(height, width - 1)))
        h = draw(_edge_biased(1, height - 1, min(width, height - 1)))
        if k == 0:
            x, y = 0, 0
        elif k == 1:
            x, y = width - w, height - h
        else:
            x = draw(_edge_biased(0, width - w))
            y = draw(_edge_biased(0, height - h))
        block = PlacedComponent(f"C{k}", x, y, w, h)
        if all(not block.overlaps(b, spacing=1) for b in blocks.values()):
            blocks[block.cid] = block
    placement = Placement(ChipGrid(width, height), blocks)
    assert placement.is_legal()
    return placement


class TestKernelAgainstOracle:
    """One :meth:`PlacementWorkspace.anneal_step` walks exactly as the
    immutable oracle step, on grids and footprints nobody picked: every
    legality verdict (bounds, no full span, clearance — the kernel's
    bitset test against ``Placement.is_legal``) and every accept/reject
    decision shows in the trial and acceptance counts, the best and the
    final blocks."""

    @settings(max_examples=300, deadline=None)
    @given(
        placement=flush_placements(),
        seed=st.integers(0, 2**32 - 1),
        temperature=st.sampled_from([0.5, 5.0, 50.0, 5000.0]),
        best_fraction=st.sampled_from([1.0, 0.75]),
    )
    def test_step_matches_oracle_step(
        self, placement, seed, temperature, best_fraction
    ):
        cids = placement.components()
        priorities = ConnectionPriorities(
            priorities={
                pair: 1.0 + i for i, pair in enumerate(zip(cids, cids[1:]))
            }
        )
        energy = placement_energy(placement, priorities)
        # The annealer's best never exceeds the current energy.
        best_energy = energy * best_fraction
        workspace = PlacementWorkspace(placement, priorities)
        trials, accepted, kernel_best, kernel_blocks = workspace.anneal_step(
            random.Random(seed), temperature, 40, best_energy,
            check=_commit_checker(workspace),
        )
        final, _energy, oracle_trials, oracle_accepted, oracle_best, best = (
            anneal_step_reference(
                placement, energy, priorities, random.Random(seed),
                temperature, 40, best_energy,
            )
        )
        assert (trials, accepted) == (oracle_trials, oracle_accepted)
        assert kernel_best == oracle_best
        assert (kernel_blocks is None) == (best is None)
        if best is not None:
            assert list(kernel_blocks.values()) == best.blocks()
        assert workspace.snapshot().blocks() == final.blocks()
        workspace.check_consistency()


def test_sampler_memory_at_the_grid_cap():
    """Footprint and keep-out masks are per footprint, not per position:
    a workspace on the largest allowed grid stays small while the
    annealing kernel runs a step.  (A keep-out table per ``(x, y)``
    would need ~256 MB per footprint.)"""
    side = math.isqrt(MAX_GRID_CELLS)
    grid = ChipGrid(side, side)
    shapes = ((3, 2), (2, 2), (1, 1), (4, 3))
    footprints = {f"C{i:02d}": shapes[i % 4] for i in range(24)}
    nets = {(f"C{i:02d}", f"C{i + 1:02d}"): 1.0 for i in range(23)}
    tracemalloc.start()
    try:
        rng = random.Random(0)
        placement = random_placement(grid, footprints, rng)
        assert placement is not None
        workspace = PlacementWorkspace(placement, ConnectionPriorities(nets))
        trials, accepted, _best, _blocks = workspace.anneal_step(
            rng, 1000.0, 2000, workspace.energy
        )
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert trials == 2000 and accepted > 1000
    workspace.check_consistency()
    assert peak < 4 * 1024 * 1024


class TestEngineParity:
    """Seeded incremental and oracle reference runs are interchangeable."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fast_schedule_parity(self, seed):
        ref = anneal_reference(GRID, FOOTPRINTS, PRIORITIES, FAST, seed=seed)
        inc = anneal_placement(
            GRID, FOOTPRINTS, PRIORITIES, FAST, seed=seed, engine="incremental"
        )
        assert inc.energy == ref.energy
        assert inc.initial_energy == ref.initial_energy
        assert inc.energy_trace == ref.energy_trace
        assert inc.accepted_moves == ref.accepted_moves
        assert inc.trials == ref.trials
        for cid in ref.placement.components():
            assert inc.placement.block(cid) == ref.placement.block(cid)

    def test_benchmark_parity_with_verification(self):
        """End-to-end parity on a real benchmark, with the incremental
        engine re-checking every accepted move against the oracle."""
        case = get_benchmark("PCR")
        problem = SynthesisProblem(assay=case.assay, allocation=case.allocation)
        schedule = schedule_assay(case.assay, case.allocation)
        priorities = build_connection_priorities(schedule)
        grid = problem.resolved_grid()
        footprints = problem.footprints()
        ref = anneal_reference(grid, footprints, priorities, FAST, seed=11)
        inc = anneal_placement(
            grid, footprints, priorities, FAST, seed=11,
            engine="incremental", verify=True,
        )
        assert inc.energy == ref.energy
        assert inc.energy_trace == ref.energy_trace
        assert placement_energy(inc.placement, priorities) == inc.energy

    def test_unknown_engine_rejected(self):
        with pytest.raises(PlacementError, match="unknown placement engine"):
            anneal_placement(
                GRID, FOOTPRINTS, PRIORITIES, FAST, engine="turbo"
            )
