"""Property tests of the workspace's exact-energy-on-read contract.

:meth:`PlacementWorkspace.commit` only updates a running estimate; the
exact Eq. 3 energy is recomputed when :attr:`PlacementWorkspace.energy`
is read.  The annealer's decisions stay bit-identical only if

* every synced read equals ``placement_energy`` bit for bit,
* ``|estimate - exact|`` stays strictly inside the guard band
  (:attr:`PlacementWorkspace.slack`) between reads, and
* identity moves (no centre changes) are exactly ``0.0`` and leave the
  energy synced.

A final check counts full passes, so a regression to one pass per
commit is caught.
"""

from __future__ import annotations

import random

import pytest

from repro.benchmarks.registry import TABLE1_ORDER, get_benchmark
from repro.benchmarks.synthetic import SyntheticSpec, generate_synthetic
from repro.components.allocation import Allocation
from repro.core.problem import SynthesisProblem
from repro.place.annealing import AnnealingParameters, anneal_placement
from repro.place.energy import build_connection_priorities, placement_energy
from repro.place.incremental import _SAMPLE_POOL_MAX, PlacementWorkspace
from repro.place.moves import random_placement
from repro.schedule import schedule_assay
from tests.oracles import annealing as oracle
from tests.place.test_incremental import propose_random

FAST = AnnealingParameters(
    initial_temperature=200.0,
    min_temperature=1.0,
    cooling_rate=0.6,
    iterations_per_temperature=40,
)

#: A generated instance with more than 21 components, so swaps take
#: ``random.sample``'s set branch too.
GENERATED = SyntheticSpec("Lazy24", 60, Allocation(9, 6, 5, 4), seed=7)


def _instance(name: str):
    if name == GENERATED.name:
        assay, allocation = generate_synthetic(GENERATED), GENERATED.allocation
    else:
        case = get_benchmark(name)
        assay, allocation = case.assay, case.allocation
    problem = SynthesisProblem(assay=assay, allocation=allocation)
    priorities = build_connection_priorities(schedule_assay(assay, allocation))
    return problem.resolved_grid(), problem.footprints(), priorities


INSTANCES = list(TABLE1_ORDER) + [GENERATED.name]


@pytest.fixture
def audited_reads(monkeypatch):
    """Check every read of ``energy`` against the from-scratch oracle."""
    reads = {"synced": 0, "passes": 0}
    lazy = PlacementWorkspace.energy

    def audited(self):
        exact = placement_energy(self.snapshot(), self.priorities)
        if self.slack:
            reads["passes"] += 1
            assert abs(self.estimate - exact) < self.slack
        else:
            assert self.estimate == exact
        value = lazy.fget(self)
        assert value == exact
        assert self.estimate == exact and self.slack == 0.0
        reads["synced"] += 1
        return value

    monkeypatch.setattr(PlacementWorkspace, "energy", property(audited))
    return reads


def test_generated_instance_takes_the_sample_set_branch():
    _grid, footprints, _priorities = _instance(GENERATED.name)
    assert len(footprints) > _SAMPLE_POOL_MAX


@pytest.mark.parametrize("name", INSTANCES)
def test_verified_anneal_reads_exact_energies(name, audited_reads):
    grid, footprints, priorities = _instance(name)
    verified = anneal_placement(
        grid, footprints, priorities, FAST, seed=3, verify=True
    )
    assert audited_reads["synced"] > 0
    assert audited_reads["passes"] < verified.accepted_moves
    plain = anneal_placement(grid, footprints, priorities, FAST, seed=3)
    assert verified.energy == plain.energy
    assert verified.energy_trace == plain.energy_trace
    assert verified.accepted_moves == plain.accepted_moves
    assert verified.placement.blocks() == plain.placement.blocks()


@pytest.mark.parametrize("name", ["CPA", GENERATED.name])
def test_verify_checks_each_committed_move_once(name, monkeypatch):
    """``verify=True`` runs the plain kernel with one check after every
    commit that moves a block: identity moves (always accepted, as
    their exact delta is ``0.0``) are not checked.  The oracle walk,
    identical for the seed, counts the identity proposals."""
    grid, footprints, priorities = _instance(name)
    identities = []
    random_move = oracle.random_move

    def counted_move(current, rng):
        candidate = random_move(current, rng)
        if candidate is not None and candidate.blocks() == current.blocks():
            identities.append(None)
        return candidate

    monkeypatch.setattr(oracle, "random_move", counted_move)
    reference = oracle.anneal_reference(
        grid, footprints, priorities, FAST, seed=3
    )
    full_check = PlacementWorkspace.check_consistency
    checks = []

    def counted_check(self, *args):
        checks.append(None)
        return full_check(self, *args)

    monkeypatch.setattr(PlacementWorkspace, "check_consistency", counted_check)
    verified = anneal_placement(
        grid, footprints, priorities, FAST, seed=3, verify=True
    )
    assert verified.accepted_moves == reference.accepted_moves
    assert identities
    # One check of the starting workspace, then one per moving commit.
    assert len(checks) == 1 + reference.accepted_moves - len(identities)


@pytest.mark.parametrize("name", ["IVD", "Synthetic4", GENERATED.name])
def test_random_walk_estimate_stays_in_guard_band(name):
    grid, footprints, priorities = _instance(name)
    rng = random.Random(17)
    placement = random_placement(grid, footprints, rng)
    assert placement is not None
    workspace = PlacementWorkspace(placement, priorities)
    identities = 0
    for step in range(600):
        pending = propose_random(workspace, rng)
        if pending is None:
            continue
        centres_kept = all(
            workspace.block(cid).centre()
            == (x + (w - 1) / 2.0, y + (h - 1) / 2.0)
            for cid, x, y, w, h in pending.changes
        )
        if centres_kept:
            identities += 1
            slack = workspace.slack
            assert workspace.exact_delta(pending) == 0.0
            workspace.commit(pending)
            assert workspace.slack == slack
        else:
            workspace.commit(pending)
        workspace.check_consistency()
        if step % 7 == 0:
            assert workspace.energy == placement_energy(
                workspace.snapshot(), priorities
            )
    assert identities > 0


def test_exact_delta_commit_reuses_its_pass():
    """Committing the move just scored by ``exact_delta`` leaves the
    workspace synced, on the exact candidate energy."""
    grid, footprints, priorities = _instance("CPA")
    rng = random.Random(5)
    workspace = PlacementWorkspace(
        random_placement(grid, footprints, rng), priorities
    )
    checked = 0
    while checked < 50:
        pending = propose_random(workspace, rng)
        if pending is None:
            continue
        before = workspace.energy
        delta = workspace.exact_delta(pending)
        workspace.commit(pending)
        assert workspace.slack == 0.0
        assert workspace.energy == placement_energy(
            workspace.snapshot(), priorities
        )
        assert workspace.energy - before == delta
        checked += 1


def test_pcr_anneal_runs_far_fewer_passes_than_commits(monkeypatch):
    grid, footprints, priorities = _instance("PCR")
    full_pass = PlacementWorkspace._exact_energy
    passes = []

    def counted(self):
        passes.append(None)
        return full_pass(self)

    monkeypatch.setattr(PlacementWorkspace, "_exact_energy", counted)
    result = anneal_placement(grid, footprints, priorities, seed=1)
    assert result.accepted_moves > 10_000
    assert 2 * len(passes) < result.accepted_moves
