"""Bit-for-bit parity of the parallel execution layer.

The acceptance contract of :mod:`repro.parallel`: ``jobs`` may change
wall-clock, never an answer.  These tests pin that end to end — final
placement blocks, recomputed placement energy, and every routed path
must be identical for ``jobs=1`` and ``jobs>1``, on multiple
benchmarks, for both single-run and multi-start configurations.
"""

from __future__ import annotations

import pytest

from repro.benchmarks.registry import get_benchmark
from repro.core.problem import SynthesisParameters, SynthesisProblem
from repro.core.synthesizer import synthesize_problem
from repro.experiments.runner import run_all
from repro.obs import Instrumentation
from repro.place.energy import build_connection_priorities, placement_energy

#: Fast SA schedule so the pooled runs stay cheap in CI.
FAST_SA = dict(
    initial_temperature=50.0,
    min_temperature=1.0,
    cooling_rate=0.7,
    iterations_per_temperature=25,
)


def _synthesize(name: str, **overrides):
    params = SynthesisParameters(seed=1, **FAST_SA, **overrides)
    case = get_benchmark(name)
    problem = SynthesisProblem(
        assay=case.assay, allocation=case.allocation, parameters=params
    )
    return synthesize_problem(problem)


def _fingerprint(result):
    """Everything that must be bit-identical across job counts."""
    priorities = build_connection_priorities(
        result.schedule,
        beta=result.problem.parameters.beta,
        gamma=result.problem.parameters.gamma,
    )
    return (
        result.placement.blocks(),
        placement_energy(result.placement, priorities),
        [tuple(path.cells) for path in result.routing.paths],
    )


class TestJobsParity:
    @pytest.mark.parametrize("name", ["PCR", "IVD"])
    def test_multistart_jobs_parity(self, name):
        serial = _synthesize(name, restarts=3, jobs=1)
        pooled = _synthesize(name, restarts=3, jobs=2)
        assert _fingerprint(serial) == _fingerprint(pooled)

    def test_single_restart_pooled_matches_legacy(self):
        legacy = _synthesize("PCR")  # restarts=1, jobs=1: pre-parallel path
        pooled = _synthesize("PCR", restarts=1, jobs=2)
        assert _fingerprint(legacy) == _fingerprint(pooled)

    def test_multistart_never_degrades(self):
        for name in ("PCR", "IVD"):
            single = _synthesize(name)
            multi = _synthesize(name, restarts=4)
            assert _fingerprint(multi)[1] <= _fingerprint(single)[1]


class TestExperimentFanOutParity:
    def test_run_all_jobs_parity_and_merged_profile(self):
        params = SynthesisParameters(seed=1, **FAST_SA)
        serial_instr = Instrumentation()
        serial = run_all(
            ["PCR", "IVD"], params, instrumentation=serial_instr, jobs=1
        )
        pooled_instr = Instrumentation()
        pooled = run_all(
            ["PCR", "IVD"], params, instrumentation=pooled_instr, jobs=2
        )
        assert [c.name for c in serial] == [c.name for c in pooled]
        for a, b in zip(serial, pooled):
            assert _fingerprint(a.ours) == _fingerprint(b.ours)
            assert _fingerprint(a.baseline) == _fingerprint(b.baseline)
        # The --profile report must not silently drop anything under
        # fan-out: identical span paths, counter keys *and totals*.
        assert set(serial_instr.span_totals()) == set(pooled_instr.span_totals())
        assert serial_instr.counters == pooled_instr.counters
        assert set(serial_instr.gauges) == set(pooled_instr.gauges)
