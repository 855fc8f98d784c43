"""Regression tests for the A* micro-optimisations.

The oracle :func:`find_path` (memoised heuristic, hoisted locals,
closed-neighbour push skip) must be *observationally identical* to the
straightforward formulation: byte-identical paths and no increase in
``astar.nodes_expanded`` on seeded benchmark routes.  The reference
below is that straightforward formulation, kept verbatim.
"""

from __future__ import annotations

import heapq

import pytest

from repro.benchmarks.registry import get_benchmark
from repro.core.problem import SynthesisParameters, SynthesisProblem
from repro.core.synthesizer import synthesize_problem
from repro.obs.instrument import Instrumentation
from tests.oracles.astar import _heuristic, find_path, reference_routing


def reference_find_path(grid, sources, targets, slot, goal_slot=None,
                        instrumentation=None):
    """Unoptimised A*: recomputes the heuristic per visit, no hoisting.

    Semantically equivalent to :func:`tests.oracles.astar.find_path`; the
    tests assert the two return identical paths with identical
    expansion counts.
    """
    if goal_slot is None:
        goal_slot = slot
    target_list = [t for t in targets if grid.is_routable(t)]
    source_list = [s for s in sources if grid.is_free(s, slot)]
    if not target_list or not source_list:
        return None, 0
    target_set = set(target_list)

    expanded = 0
    open_heap = []
    accumulated = {}
    parent = {}
    for source in source_list:
        cost = 1.0 + grid.weight(source)
        if cost < accumulated.get(source, float("inf")):
            accumulated[source] = cost
            parent[source] = None
            f = cost + _heuristic(source, target_list)
            heapq.heappush(open_heap, (f, (source.x, source.y), source))

    path = None
    closed = set()
    while open_heap:
        _f, _tie, cell = heapq.heappop(open_heap)
        if cell in closed:
            continue
        closed.add(cell)
        expanded += 1
        if cell in target_set and grid.is_free(cell, goal_slot):
            chain = [cell]
            while parent[chain[-1]] is not None:
                chain.append(parent[chain[-1]])
            chain.reverse()
            path = tuple(chain)
            break
        for neighbour in cell.neighbours():
            if neighbour in closed:
                continue
            if not grid.is_free(neighbour, slot):
                continue
            cost = accumulated[cell] + 1.0 + grid.weight(neighbour)
            if cost < accumulated.get(neighbour, float("inf")):
                accumulated[neighbour] = cost
                parent[neighbour] = cell
                f = cost + _heuristic(neighbour, target_list)
                heapq.heappush(
                    open_heap, (f, (neighbour.x, neighbour.y), neighbour)
                )
    return path, expanded


def run_routes(find_path_impl, name, seed):
    """Route benchmark *name* end-to-end with *find_path_impl* swapped in."""
    params = SynthesisParameters(
        initial_temperature=50.0,
        min_temperature=1.0,
        cooling_rate=0.7,
        iterations_per_temperature=25,
        seed=seed,
    )
    case = get_benchmark(name)
    problem = SynthesisProblem(
        assay=case.assay, allocation=case.allocation, parameters=params
    )
    instr = Instrumentation()
    with reference_routing(find_path_impl):
        result = synthesize_problem(problem, instrumentation=instr)
    paths = tuple((p.task.task_id, p.cells) for p in result.routing.paths)
    return paths, instr.counters.get("astar.nodes_expanded", 0)


class TestAstarRegression:
    @pytest.mark.parametrize("name", ["PCR", "IVD", "Synthetic1"])
    @pytest.mark.parametrize("seed", [1, 7])
    def test_paths_identical_and_no_extra_expansions(self, name, seed):
        reference_expanded = {"total": 0}

        def wrapped_reference(grid, sources, targets, slot,
                              goal_slot=None, instrumentation=None):
            path, expanded = reference_find_path(
                grid, sources, targets, slot, goal_slot
            )
            reference_expanded["total"] += expanded
            return path

        expected_paths, _ = run_routes(wrapped_reference, name, seed)
        actual_paths, actual_expanded = run_routes(find_path, name, seed)
        assert actual_paths == expected_paths
        assert actual_expanded <= reference_expanded["total"]


class TestHeuristic:
    def test_min_manhattan(self):
        from repro.place.grid import Cell

        targets = [Cell(0, 0), Cell(5, 5), Cell(9, 1)]
        assert _heuristic(Cell(4, 4), targets) == 2
        assert _heuristic(Cell(0, 1), targets) == 1
