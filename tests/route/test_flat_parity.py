"""End-to-end parity: the flat router vs the reference A* oracle.

The flat router's contract is *path identity*, not merely equal path
lengths: for every benchmark and both flows, the two engines must
produce the identical sequence of routed paths — same task order, same
cell sequences, same cache slots, same per-cell occupation plans, same
postponements — and both results must satisfy the independent
design-rule checker.
These tests pin that contract over every registered benchmark plus the
three scale-tier synthetic seeds.

SA parameters are reduced (as in ``test_astar_regression``) so the full
matrix stays fast; the routing inputs are still the real placements and
schedules of each benchmark.  The reference side runs the same routing
loops over a :class:`~tests.oracles.routing_grid.RoutingGrid` with the
Cell/dict A* of :mod:`tests.oracles.astar`.
"""

from __future__ import annotations

import pytest

from repro.benchmarks.registry import SCALE_ORDER, TABLE1_ORDER, get_benchmark
from repro.core.baseline import synthesize_problem_baseline
from repro.core.problem import SynthesisParameters, SynthesisProblem
from repro.core.synthesizer import synthesize_problem
from tests.oracles.astar import reference_routing

_FLOWS = {
    "ours": synthesize_problem,
    "baseline": synthesize_problem_baseline,
}


def routed_paths(name: str, flow: str, seed: int = 1):
    params = SynthesisParameters(
        initial_temperature=50.0,
        min_temperature=1.0,
        cooling_rate=0.7,
        iterations_per_temperature=25,
        seed=seed,
        check="strict",  # the checker must pass on both routers' results
    )
    case = get_benchmark(name)
    problem = SynthesisProblem(
        assay=case.assay, allocation=case.allocation, parameters=params
    )
    result = _FLOWS[flow](problem)
    return tuple(
        (p.task.task_id, p.cells, p.slot, p.occupations, p.postponement)
        for p in result.routing.paths
    )


class TestFlatReferencePathIdentity:
    @pytest.mark.parametrize("flow", ["ours", "baseline"])
    @pytest.mark.parametrize("name", list(TABLE1_ORDER) + ["Fig2a"])
    def test_benchmarks(self, name, flow):
        flat = routed_paths(name, flow)
        with reference_routing():
            reference = routed_paths(name, flow)
        assert flat  # a vacuous pass would hide a broken pipeline
        assert flat == reference

    @pytest.mark.parametrize("flow", ["ours", "baseline"])
    @pytest.mark.parametrize("name", SCALE_ORDER)
    def test_scale_tier(self, name, flow):
        flat = routed_paths(name, flow)
        with reference_routing():
            reference = routed_paths(name, flow)
        assert flat
        assert flat == reference
