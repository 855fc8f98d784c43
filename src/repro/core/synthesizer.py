"""The proposed top-down synthesis flow (Section IV).

:func:`synthesize` chains the three stages of the paper's algorithm:

1. **Binding & scheduling** — Algorithm 1 (priority list scheduling with
   the Case I / Case II DCSA binding strategy);
2. **Placement** — simulated annealing under the Eq. 3 / Eq. 4 energy,
   optionally as deterministic multi-start across a process pool
   (``SynthesisParameters.restarts`` / ``jobs``, see
   :mod:`repro.parallel`);
3. **Routing** — transportation-conflict-aware A* with cell weights and
   occupation time slots.

The returned :class:`~repro.core.solution.SynthesisResult` carries the
Table I metrics, including the wall-clock CPU time of the run and a
per-phase time breakdown.  Stage timing and the optional event stream
run through the shared driver in :mod:`repro.core.pipeline`; pass an
:class:`~repro.obs.Instrumentation` to capture SA convergence traces,
A* expansion counters, and the rest of the pipeline telemetry.
"""

from __future__ import annotations

from repro.assay.graph import SequencingGraph
from repro.components.allocation import Allocation
from repro.core.pipeline import execute_flow
from repro.core.problem import SynthesisParameters, SynthesisProblem
from repro.core.solution import SynthesisResult
from repro.obs.instrument import Instrumentation
from repro.parallel.multistart import anneal_multistart
from repro.place.energy import build_connection_priorities
from repro.route.router import route_tasks
from repro.schedule.list_scheduler import schedule_assay
from repro.schedule.validate import validate_schedule

__all__ = ["synthesize", "synthesize_problem"]


def synthesize_problem(
    problem: SynthesisProblem,
    instrumentation: Instrumentation | None = None,
) -> SynthesisResult:
    """Run the full proposed flow on a prepared problem."""
    params = problem.parameters

    def schedule_stage(problem: SynthesisProblem, instr: Instrumentation):
        schedule = schedule_assay(
            problem.assay,
            problem.allocation,
            params.transport_time,
            instrumentation=instr,
        )
        validate_schedule(schedule)
        return schedule

    def place_stage(problem, schedule, instr: Instrumentation):
        priorities = build_connection_priorities(
            schedule, beta=params.beta, gamma=params.gamma
        )
        annealed = anneal_multistart(
            problem.resolved_grid(),
            problem.footprints(),
            priorities,
            parameters=params.annealing(),
            base_seed=params.seed,
            restarts=params.restarts,
            jobs=params.jobs,
            engine=params.placement_engine,
            instrumentation=instr,
            seed_derivation=params.seed_derivation,
        )
        return annealed.placement

    def route_stage(problem, schedule, placement, instr: Instrumentation):
        return route_tasks(
            placement,
            schedule.transport_tasks(),
            initial_weight=params.initial_cell_weight,
            instrumentation=instr,
            engine=params.route_engine,
        )

    return execute_flow(
        problem,
        "ours",
        schedule_stage,
        place_stage,
        route_stage,
        instrumentation=instrumentation,
    )


def synthesize(
    assay: SequencingGraph,
    allocation: Allocation,
    parameters: SynthesisParameters | None = None,
    seed: int | None = None,
    instrumentation: Instrumentation | None = None,
) -> SynthesisResult:
    """Convenience wrapper: build the problem and run the proposed flow.

    Parameters
    ----------
    assay, allocation:
        The *Given* of the problem formulation.
    parameters:
        Flow parameters; ``None`` selects the paper's defaults.
    seed:
        Shorthand to override only the annealer seed of *parameters*.
    instrumentation:
        Optional :class:`~repro.obs.Instrumentation` receiving spans,
        counters, and convergence events; ``None`` keeps the
        zero-overhead default (phase times are still measured).
    """
    params = parameters or SynthesisParameters()
    if seed is not None:
        params = SynthesisParameters(
            **{**params.__dict__, "seed": seed}
        )
    problem = SynthesisProblem(
        assay=assay, allocation=allocation, parameters=params
    )
    return synthesize_problem(problem, instrumentation=instrumentation)
