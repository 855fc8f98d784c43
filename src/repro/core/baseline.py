"""The baseline algorithm (BA) end-to-end flow (Section V).

BA composes the naive counterpart of every stage:

1. **Binding & scheduling** — earliest-ready binding, FIFO dispatch;
2. **Placement** — deterministic construction-by-correction (shelf
   packing + pairwise-swap wirelength correction, unit net priorities);
3. **Routing** — plain shortest paths corrected by postponing
   conflicting tasks.

Routing postponements feed back into the reported execution time via
:func:`~repro.schedule.retiming.retime_with_delays` (inside
:func:`~repro.core.metrics.compute_metrics`), which is precisely the
degradation mechanism the paper describes for BA in Section II-C.2.

Timing and telemetry run through the same
:func:`~repro.core.pipeline.execute_flow` driver as the proposed flow,
so ``--profile`` / ``--trace`` and ``phase_times`` work identically for
both algorithms.
"""

from __future__ import annotations

from repro.assay.graph import SequencingGraph
from repro.components.allocation import Allocation
from repro.core.pipeline import execute_flow
from repro.core.problem import SynthesisParameters, SynthesisProblem
from repro.core.solution import SynthesisResult
from repro.obs.instrument import Instrumentation
from repro.place.greedy import greedy_placement
from repro.route.router import route_tasks_baseline
from repro.schedule.baseline_scheduler import schedule_assay_baseline
from repro.schedule.validate import validate_schedule

__all__ = ["synthesize_baseline", "synthesize_problem_baseline"]


def synthesize_problem_baseline(
    problem: SynthesisProblem,
    instrumentation: Instrumentation | None = None,
) -> SynthesisResult:
    """Run the baseline flow on a prepared problem."""
    params = problem.parameters

    def schedule_stage(problem: SynthesisProblem, instr: Instrumentation):
        schedule = schedule_assay_baseline(
            problem.assay,
            problem.allocation,
            params.transport_time,
            instrumentation=instr,
        )
        validate_schedule(schedule)
        return schedule

    def place_stage(problem, schedule, instr: Instrumentation):
        tasks = schedule.transport_tasks()
        nets = sorted(
            {
                (min(t.src_component, t.dst_component), max(t.src_component, t.dst_component))
                for t in tasks
                if t.src_component != t.dst_component
            }
        )
        return greedy_placement(problem.resolved_grid(), problem.footprints(), nets)

    def route_stage(problem, schedule, placement, instr: Instrumentation):
        return route_tasks_baseline(
            placement, schedule.transport_tasks(), instrumentation=instr
        )

    return execute_flow(
        problem,
        "baseline",
        schedule_stage,
        place_stage,
        route_stage,
        instrumentation=instrumentation,
    )


def synthesize_baseline(
    assay: SequencingGraph,
    allocation: Allocation,
    parameters: SynthesisParameters | None = None,
    instrumentation: Instrumentation | None = None,
) -> SynthesisResult:
    """Convenience wrapper: build the problem and run the baseline flow."""
    params = parameters or SynthesisParameters()
    problem = SynthesisProblem(
        assay=assay, allocation=allocation, parameters=params
    )
    return synthesize_problem_baseline(problem, instrumentation=instrumentation)
