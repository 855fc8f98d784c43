"""Tests for deterministic multi-start annealing and its reduction."""

from __future__ import annotations

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.benchmarks.registry import get_benchmark
from repro.core.problem import SynthesisParameters, SynthesisProblem
from repro.core.synthesizer import synthesize
from repro.errors import PlacementError
from repro.obs import Instrumentation
from repro.parallel.multistart import (
    SEED_DERIVATIONS,
    RestartOutcome,
    anneal_multistart,
    derive_seed,
    multistart_seeds,
    select_best,
    splitmix64,
)
from repro.place.annealing import (
    AnnealingParameters,
    AnnealingResult,
    anneal_placement,
)
from repro.place.energy import build_connection_priorities, placement_energy
from repro.schedule.list_scheduler import schedule_assay

#: A fast SA schedule for tests (same shape the runner tests use).
FAST = AnnealingParameters(
    initial_temperature=50.0,
    min_temperature=1.0,
    cooling_rate=0.7,
    iterations_per_temperature=25,
)


def _problem_inputs(name="PCR", seed=1):
    case = get_benchmark(name)
    params = SynthesisParameters(seed=seed)
    problem = SynthesisProblem(
        assay=case.assay, allocation=case.allocation, parameters=params
    )
    schedule = schedule_assay(
        problem.assay, problem.allocation, params.transport_time
    )
    priorities = build_connection_priorities(
        schedule, beta=params.beta, gamma=params.gamma
    )
    return problem.resolved_grid(), problem.footprints(), priorities


class TestSeedDerivation:
    def test_single_restart_keeps_base_seed(self):
        assert multistart_seeds(7, 1) == (7,)

    def test_derived_seeds_scheme(self):
        assert multistart_seeds(7, 4) == (
            7,
            309689372594955804,
            16616101746815609346,
            10753165928301472203,
        )

    def test_seeds_distinct(self):
        seeds = multistart_seeds(3, 16)
        assert len(set(seeds)) == 16

    def test_invalid_restarts_rejected(self):
        with pytest.raises(PlacementError, match="restarts"):
            multistart_seeds(1, 0)

    def test_splitmix_fixes_the_collision(self):
        assert (
            multistart_seeds(2, 2, "splitmix")[1]
            != multistart_seeds(2001, 1, "splitmix")[0]
        )

    def test_restart_zero_keeps_base_in_both_schemes(self):
        # Arm/restart 0 must walk the single-run trajectory whatever
        # the derivation, so results stay comparable across schemes.
        for derivation in SEED_DERIVATIONS:
            assert multistart_seeds(42, 3, derivation)[0] == 42

    def test_unknown_derivation_rejected(self):
        with pytest.raises(PlacementError, match="derivation"):
            multistart_seeds(1, 2, "golden")

    def test_splitmix64_reference_vector(self):
        # First output of the canonical SplitMix64 stream for seed 0
        # (Steele et al.; same vector the xoshiro site publishes).
        assert splitmix64(0) == 0xE220A8397B1DCDAF


class TestSplitmixUniqueness:
    """Property: the splitmix scheme never collides across runs."""

    @given(
        base_a=st.integers(min_value=0, max_value=2**32),
        base_b=st.integers(min_value=0, max_value=2**32),
        k_a=st.integers(min_value=1, max_value=64),
        k_b=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=200, deadline=None)
    def test_distinct_restart_streams_never_collide(
        self, base_a, base_b, k_a, k_b
    ):
        assume((base_a, k_a) != (base_b, k_b))
        assert derive_seed(base_a, k_a, "splitmix") != derive_seed(
            base_b, k_b, "splitmix"
        )

    @given(
        base=st.integers(min_value=0, max_value=2**48),
        restarts=st.integers(min_value=1, max_value=128),
    )
    @settings(max_examples=100, deadline=None)
    def test_seed_sets_are_unique_per_run(self, base, restarts):
        seeds = multistart_seeds(base, restarts, "splitmix")
        assert len(set(seeds)) == restarts


def _fake_outcome(seed: int, energy: float) -> RestartOutcome:
    result = AnnealingResult(
        placement=None,
        energy=energy,
        initial_energy=energy,
        accepted_moves=0,
        trials=0,
        energy_trace=[],
        seed=seed,
    )
    return RestartOutcome(seed=seed, result=result, snapshot=None)


class TestSelectBest:
    def test_minimum_energy_wins(self):
        outcomes = [_fake_outcome(1, 5.0), _fake_outcome(1001, 3.0)]
        assert select_best(outcomes).seed == 1001

    def test_energy_tie_breaks_to_smallest_seed(self):
        outcomes = [
            _fake_outcome(1002, 3.0),
            _fake_outcome(1, 3.0),
            _fake_outcome(1001, 3.0),
        ]
        assert select_best(outcomes).seed == 1

    def test_reduction_is_order_independent(self):
        """Any completion order must elect the same winner."""
        outcomes = [
            _fake_outcome(seed, energy)
            for seed, energy in [
                (1, 4.0), (1001, 3.0), (1002, 3.0), (1003, 5.0), (1004, 3.0),
            ]
        ]
        rng = random.Random(0)
        winners = set()
        for _ in range(20):
            shuffled = outcomes[:]
            rng.shuffle(shuffled)
            winners.add(select_best(shuffled).seed)
        assert winners == {1001}

    def test_empty_rejected(self):
        with pytest.raises(PlacementError, match="no restart outcomes"):
            select_best([])


class TestAnnealMultistart:
    def test_single_restart_is_the_plain_anneal(self):
        grid, footprints, priorities = _problem_inputs()
        direct = anneal_placement(
            grid, footprints, priorities, parameters=FAST, seed=1
        )
        multi = anneal_multistart(
            grid, footprints, priorities, parameters=FAST,
            base_seed=1, restarts=1, jobs=1,
        )
        assert multi.energy == direct.energy
        assert multi.energy_trace == direct.energy_trace
        assert multi.placement.blocks() == direct.placement.blocks()
        assert multi.seed == 1

    def test_best_of_restarts_never_worse_than_single(self):
        for name in ("PCR", "IVD"):
            grid, footprints, priorities = _problem_inputs(name)
            single = anneal_placement(
                grid, footprints, priorities, parameters=FAST, seed=1
            )
            multi = anneal_multistart(
                grid, footprints, priorities, parameters=FAST,
                base_seed=1, restarts=4, jobs=1,
            )
            assert multi.energy <= single.energy

    def test_winner_reports_its_seed(self):
        grid, footprints, priorities = _problem_inputs()
        multi = anneal_multistart(
            grid, footprints, priorities, parameters=FAST,
            base_seed=1, restarts=4, jobs=1,
        )
        assert multi.seed in multistart_seeds(1, 4)

    def test_splitmix_derivation_end_to_end(self):
        grid, footprints, priorities = _problem_inputs()
        serial = anneal_multistart(
            grid, footprints, priorities, parameters=FAST,
            base_seed=1, restarts=3, jobs=1, seed_derivation="splitmix",
        )
        pooled = anneal_multistart(
            grid, footprints, priorities, parameters=FAST,
            base_seed=1, restarts=3, jobs=2, seed_derivation="splitmix",
        )
        assert serial.energy == pooled.energy
        assert serial.placement.blocks() == pooled.placement.blocks()
        assert serial.placement.is_legal()

    def test_instrumentation_merged_identically_across_jobs(self):
        grid, footprints, priorities = _problem_inputs()
        aggregates = []
        for jobs in (1, 2):
            instr = Instrumentation()
            anneal_multistart(
                grid, footprints, priorities, parameters=FAST,
                base_seed=1, restarts=3, jobs=jobs, instrumentation=instr,
            )
            aggregates.append((instr.counters, instr.gauges))
        assert aggregates[0] == aggregates[1]
        counters = aggregates[0][0]
        assert counters["sa.restarts"] == 3
        # SA move counters cover every restart, not just the winner.
        assert counters["sa.moves_proposed"] > 0

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_energy_gauges_report_the_winning_restart(self, jobs):
        # Restart 3 ends at 2971.04, but restart 2 wins with 2701.16:
        # the gauges must describe the placement that is returned.
        case = get_benchmark("CPA")
        params = SynthesisParameters(seed=1, restarts=4, jobs=jobs)
        instr = Instrumentation()
        result = synthesize(
            case.assay, case.allocation, params, instrumentation=instr
        )
        priorities = build_connection_priorities(
            result.schedule, beta=params.beta, gamma=params.gamma
        )
        returned = placement_energy(result.placement, priorities)
        assert instr.gauges["sa.final_energy"] == returned
        assert returned == pytest.approx(2701.16)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_live_monitor_hears_every_restart(self, jobs):
        from repro.obs.live import LiveProgressMonitor

        grid, footprints, priorities = _problem_inputs()
        with LiveProgressMonitor() as monitor:
            anneal_multistart(
                grid, footprints, priorities, parameters=FAST,
                base_seed=1, restarts=3, jobs=jobs,
            )
        # Inline restarts write to the monitor's pipe, pooled ones to
        # the pipe their initializer installed: both reach the monitor.
        assert {
            point["worker"]
            for point in monitor.checkpoints()
            if point["kind"] == "done"
        } == {0, 1, 2}


class TestRestartEventCapture:
    """Restarts record only the event names the parent's sink reads."""

    @staticmethod
    def _captured(monkeypatch):
        import repro.parallel.multistart as multistart

        names: list[set[str]] = []
        run = multistart._run_anneal_task

        def recording(task):
            outcome = run(task)
            names.append({event.name for event in outcome.events})
            return outcome

        monkeypatch.setattr(multistart, "_run_anneal_task", recording)
        return names

    def test_relay_sinked_job_captures_only_subscribed_events(
        self, monkeypatch
    ):
        from repro.obs.live import HeartbeatRelay
        from repro.serve.executor import JobTask, execute_submission

        class Beats:
            def __init__(self):
                self.beats = []

            def put_nowait(self, beat):
                self.beats.append(beat)

        names = self._captured(monkeypatch)
        beats = Beats()
        execute_submission(
            JobTask(
                document={
                    "benchmark": "CPA",
                    "parameters": {"seed": 1, "restarts": 2},
                },
                label="job-1",
            ),
            beats=beats,
        )
        assert len(names) == 2
        for captured in names:
            assert captured
            assert captured <= HeartbeatRelay.subscribed
        assert any(beat.kind == "sa" for beat in beats.beats)

    def test_sink_subscribed_to_nothing_captures_nothing(self, monkeypatch):
        from repro.obs.sinks import RecordingSink

        class Deaf(RecordingSink):
            subscribed = frozenset()

        names = self._captured(monkeypatch)
        grid, footprints, priorities = _problem_inputs()
        sink = Deaf()
        anneal_multistart(
            grid, footprints, priorities, parameters=FAST,
            base_seed=1, restarts=2, instrumentation=Instrumentation(sink),
        )
        assert names == [set(), set()]
        assert sink.events == []

    def test_unsubscribed_sink_still_captures_everything(self, monkeypatch):
        from repro.obs.sinks import RecordingSink

        names = self._captured(monkeypatch)
        grid, footprints, priorities = _problem_inputs()
        sink = RecordingSink()
        anneal_multistart(
            grid, footprints, priorities, parameters=FAST,
            base_seed=1, restarts=2, instrumentation=Instrumentation(sink),
        )
        assert len(names) == 2
        assert all("sa.step" in captured for captured in names)
        assert sink.named("sa.step")
