"""Portfolio racing versus equal-budget multi-start.

:func:`measure_portfolio` is the measurement behind
``python -m repro.experiments bench --portfolio N``: it runs the full
successive-halving race and the classic multi-start at the same total
candidate budget, in CPU seconds, and checks the racer's determinism
contract and strict-checker cleanliness on the way.
"""

from __future__ import annotations

import time

from repro.benchmarks.registry import get_benchmark
from repro.core.problem import SynthesisParameters, SynthesisProblem
from repro.core.synthesizer import synthesize_problem
from repro.place.energy import build_connection_priorities

__all__ = ["measure_portfolio"]


def measure_portfolio(
    names: tuple[str, ...] | list[str],
    arms: int = 8,
    rungs: int = 3,
    seed: int = 1,
    determinism_jobs: tuple[int, ...] = (1, 4),
    check: bool = True,
) -> list[dict]:
    """Portfolio racing versus equal-budget multi-start, per benchmark.

    The comparison holds the **total move budget** fixed, counted in
    candidate evaluations (batch arms evaluate ``K`` candidates per
    iteration and get ``budget // K`` iterations): with halving kills
    over *rungs* rungs, an ``n``-arm race plans — for the default
    ``rungs=3`` and even ``n`` — exactly ``n/2`` full schedules'
    worth of candidates.  The multi-start side therefore runs
    ``restarts = n/2`` classic full anneals.  Both sides are measured
    at ``jobs=1`` with ``time.process_time`` so the figures are pure
    CPU seconds, unaffected by pool scheduling.

    Efficiency is ``(E_init - E_best) / cpu_seconds`` with a **shared**
    ``E_init``: the base-seed random initial placement's energy, which
    is by construction both arm 0's and restart 0's starting point —
    so the two efficiencies divide the same numerator scale and the
    ratio is meaningful.

    Each row additionally verifies the racer's determinism contract
    (identical winner energy and blocks across *determinism_jobs*) and,
    with *check* on, runs the full portfolio pipeline under the strict
    independent checker (``checker_clean`` records the verdict).
    """
    import random as random_module
    from dataclasses import replace as _replace

    from repro.parallel.multistart import anneal_multistart
    from repro.parallel.portfolio import race_portfolio, resolve_arms
    from repro.place.energy import placement_energy as _placement_energy
    from repro.place.moves import random_placement
    from repro.schedule.list_scheduler import schedule_assay

    rows: list[dict] = []
    for name in names:
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
        grid = problem.resolved_grid()
        footprints = problem.footprints()
        annealing = params.annealing()
        arm_set = resolve_arms(arms, base_seed=seed)

        # Shared efficiency reference: the base-seed random initial
        # placement both solvers start restart/arm 0 from.
        initial = random_placement(grid, footprints, random_module.Random(seed))
        init_ref = _placement_energy(initial, priorities)

        raced = race_portfolio(
            grid, footprints, priorities, arm_set,
            parameters=annealing, rungs=rungs, jobs=1,
        )
        portfolio_cpu = raced.summary["total_cpu_seconds"]
        portfolio_candidates = sum(
            a["candidates"] for a in raced.summary["arms"]
        )
        portfolio_eff = (
            (init_ref - raced.result.energy) / portfolio_cpu
            if portfolio_cpu > 0 else 0.0
        )

        restarts = max(1, arms // 2)
        cpu_started = time.process_time()
        multi = anneal_multistart(
            grid, footprints, priorities,
            parameters=annealing, base_seed=seed,
            restarts=restarts, jobs=1, engine="incremental",
        )
        multistart_cpu = time.process_time() - cpu_started
        multistart_candidates = restarts * annealing.total_iterations
        multistart_eff = (
            (init_ref - multi.energy) / multistart_cpu
            if multistart_cpu > 0 else 0.0
        )

        deterministic = True
        baseline_blocks = raced.result.placement.blocks()
        for jobs in determinism_jobs:
            again = race_portfolio(
                grid, footprints, priorities, arm_set,
                parameters=annealing, rungs=rungs, jobs=jobs,
            )
            if (
                again.result.energy != raced.result.energy
                or again.result.placement.blocks() != baseline_blocks
                or again.summary["winner"] != raced.summary["winner"]
            ):
                deterministic = False

        checker_clean = None
        if check:
            strict_problem = SynthesisProblem(
                assay=case.assay,
                allocation=case.allocation,
                parameters=_replace(
                    params, portfolio=arms, rungs=rungs, check="strict"
                ),
            )
            from repro.errors import CheckError

            try:
                synthesize_problem(strict_problem)
            except CheckError:
                checker_clean = False
            else:
                checker_clean = True

        rows.append(
            {
                "benchmark": name,
                "seed": seed,
                "arms": arms,
                "rungs": rungs,
                "restarts_equal_budget": restarts,
                "initial_energy_ref": init_ref,
                "portfolio": {
                    "energy": raced.result.energy,
                    "cpu_seconds": round(portfolio_cpu, 6),
                    "candidates": portfolio_candidates,
                    "efficiency": round(portfolio_eff, 3),
                    "winner": raced.summary["winner"],
                    "winner_spec": raced.summary["winner_spec"],
                    "kills": {
                        a["arm_id"]: a["killed_at_rung"]
                        for a in raced.summary["arms"]
                    },
                },
                "multistart": {
                    "energy": multi.energy,
                    "cpu_seconds": round(multistart_cpu, 6),
                    "candidates": multistart_candidates,
                    "efficiency": round(multistart_eff, 3),
                },
                "efficiency_ratio": (
                    round(portfolio_eff / multistart_eff, 3)
                    if multistart_eff > 0 else None
                ),
                "portfolio_better": portfolio_eff > multistart_eff,
                "deterministic_across_jobs": deterministic,
                "determinism_jobs": list(determinism_jobs),
                "checker_clean": checker_clean,
            }
        )
    return rows
