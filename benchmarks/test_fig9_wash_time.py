"""Experiment E3 — regenerate Fig. 9 (total wash time of flow channels).

Asserts the figure's message — the weight-guided, conflict-aware router
washes less channel residue than BA on every benchmark — and prints the
regenerated chart.  The timed body is the routing stage on a fixed
placement, which is where channel wash obligations arise.
"""

from __future__ import annotations

import pytest

from repro.benchmarks.registry import TABLE1_ORDER, get_benchmark
from repro.core.problem import SynthesisProblem
from repro.experiments.fig9 import render_fig9
from repro.place.greedy import construct_placement
from repro.route.router import route_tasks
from repro.schedule.list_scheduler import schedule_assay


@pytest.mark.parametrize("name", TABLE1_ORDER)
def test_fig9_wash_time(benchmark, comparisons, name):
    comparison = comparisons[name]
    ours = comparison.ours.metrics.total_channel_wash_time
    base = comparison.baseline.metrics.total_channel_wash_time
    assert ours <= base + 1e-9, (
        f"{name}: ours washes {ours:.1f}s vs BA {base:.1f}s"
    )

    case = get_benchmark(name)
    problem = SynthesisProblem(assay=case.assay, allocation=case.allocation)
    schedule = schedule_assay(case.assay, case.allocation)
    placement = construct_placement(
        problem.resolved_grid(), problem.footprints()
    )
    tasks = schedule.transport_tasks()
    benchmark.pedantic(route_tasks, args=(placement, tasks), rounds=3, iterations=1)


def test_fig9_no_transportation_conflicts_for_ours(comparisons):
    """The paper: wash efficiency improves 'without introducing any
    transportation conflict' — the conflict-aware router's slot sets
    stay pairwise disjoint on every benchmark."""
    for name, comparison in comparisons.items():
        history = comparison.ours.routing.usage_history()
        assert history
        for cell, usages in history.items():
            slots = [usage.slot for usage in usages]
            for i, first in enumerate(slots):
                for second in slots[i + 1:]:
                    assert not first.overlaps(second), (
                        f"{name}: conflicting occupation on {cell}"
                    )


def test_print_fig9(comparisons, capsys):
    with capsys.disabled():
        print()
        print(render_fig9(list(comparisons.values())))
