"""Property tests of the workspace's exact-energy-on-read contract.

A commit of :meth:`PlacementWorkspace.anneal_step` only updates a
running estimate; the exact Eq. 3 energy is recomputed when
:attr:`PlacementWorkspace.energy` is read.  The annealer's decisions
stay bit-identical only if

* every synced read equals ``placement_energy`` bit for bit,
* ``|estimate - exact|`` stays strictly inside the guard band
  (:attr:`PlacementWorkspace.slack`) between reads, and
* identity moves (no centre changes) are exactly ``0.0`` and leave the
  energy untouched.

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
from repro.place.annealing import (
    AnnealingParameters,
    _commit_checker,
    anneal_placement,
)
from repro.place.energy import build_connection_priorities, placement_energy
from repro.place.incremental import (
    _EXACT_DELTA_THRESHOLD,
    _SAMPLE_POOL_MAX,
    PlacementWorkspace,
)
from repro.place.moves import random_placement
from repro.schedule import schedule_assay
from tests.oracles import annealing as oracle

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
    """Kernel steps over the whole schedule, checked after every moving
    commit: the estimate stays inside its guard band and the delta
    agrees with the realised change.  After each step the workspace
    holds the oracle step's placement and exact energy."""
    grid, footprints, priorities = _instance(name)
    rng = random.Random(17)
    current = random_placement(grid, footprints, rng)
    assert current is not None
    workspace = PlacementWorkspace(current, priorities)
    check = _commit_checker(workspace)
    oracle_rng = random.Random()
    oracle_rng.setstate(rng.getstate())
    current_energy = best_energy = workspace.energy
    temperature = FAST.initial_temperature
    while temperature > FAST.min_temperature:
        _trials, _accepted, best_energy, _blocks = workspace.anneal_step(
            rng, temperature, FAST.iterations_per_temperature, best_energy,
            check,
        )
        current, current_energy, *_rest = oracle.anneal_step_reference(
            current, current_energy, priorities, oracle_rng, temperature,
            FAST.iterations_per_temperature, current_energy,
        )
        assert workspace.snapshot().blocks() == current.blocks()
        assert workspace.energy == current_energy
        temperature *= FAST.cooling_rate


def test_exact_delta_commit_reuses_its_pass():
    """Committing a move that the kernel scored by the exact fallback
    leaves the workspace synced, on the exact candidate energy."""
    grid, footprints, priorities = _instance("CPA")
    rng = random.Random(5)
    workspace = PlacementWorkspace(
        random_placement(grid, footprints, rng), priorities
    )
    fallbacks = []

    def check(delta):
        if -_EXACT_DELTA_THRESHOLD < delta < _EXACT_DELTA_THRESHOLD:
            assert workspace.slack == 0.0
            assert workspace.estimate == placement_energy(
                workspace.snapshot(), priorities
            )
            fallbacks.append(delta)

    schedule = AnnealingParameters()
    temperature = schedule.initial_temperature
    while temperature > schedule.min_temperature:
        workspace.anneal_step(
            rng, temperature, schedule.iterations_per_temperature,
            workspace.energy, check,
        )
        temperature *= schedule.cooling_rate
    assert len(fallbacks) >= 50


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
