"""The library workload, ``table1``.

One caller runs ``repro.core.synthesizer.synthesize`` over a plan made
from the workload seed, in a closed loop: the next call starts when the
previous one returned.  The default ``SynthesisParameters`` apply; the
plan only chooses the problems and the annealer seeds.

An untraced run reports the end-to-end metrics.  Every call is timed
between two host-speed probes and counted at reference speed
(``common.probe``).  A traced run rebuilds every synthesis from the
public stage functions, in ``synthesize_problem``'s order, times each
stage from here, and proves that the rebuilt flow returns the metrics,
placement and paths that ``synthesize()`` returns for the same problem.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Any

from common import (
    SERVICE_LAYERS,
    at_reference,
    digest,
    end_to_end,
    hit_summary,
    library_setup_seconds,
    metric,
    peak_rss_mb,
    perf,
    print_unscaled,
    probe,
    quality,
    report_failure,
    result_errors,
    same_solution,
    timed_start,
)

#: Fresh-interpreter set-ups per run, spread evenly over the plan; the
#: median is reported.
SETUP_SAMPLES = 7
#: Table I rounds per measured second; a round synthesizes each of the
#: seven rows once.
TABLE1_ROUNDS_PER_SECOND = 0.5
#: Processes that re-run served submissions through the library flow
#: after a service run.
VERIFY_WORKERS = 2
#: Library cache-hit replays per planned synthesis.
HITS_PER_ITEM = 100
#: Seeds are drawn from ``[1, SEED_SPACE)``; seed 0 is the set-up
#: probe's.
SEED_SPACE = 1_000_000


@dataclass(frozen=True)
class Item:
    """One planned synthesis: a problem and its annealer seed."""

    label: str
    assay: Any
    allocation: Any
    seed: int

    def problem(self):
        from repro.core.problem import SynthesisParameters, SynthesisProblem

        return SynthesisProblem(
            assay=self.assay,
            allocation=self.allocation,
            parameters=SynthesisParameters(seed=self.seed),
        )


def table1_items(pairs) -> list[Item]:
    """Items for ``(Table I row, annealer seed)`` pairs."""
    from repro.benchmarks.registry import get_benchmark

    items = []
    for row, seed in pairs:
        case = get_benchmark(row)
        items.append(Item(row, case.assay, case.allocation, seed))
    return items


def table1_plan(seed: int, seconds: float, smoke: bool) -> list[Item]:
    """Every Table I row equally often, with drawn annealer seeds, in a
    seeded order."""
    from repro.benchmarks.registry import TABLE1_ORDER

    rng = random.Random(seed)
    rounds = 1 if smoke else max(
        2, round(seconds * TABLE1_ROUNDS_PER_SECOND)
    )
    rows = [row for _ in range(rounds) for row in TABLE1_ORDER]
    pairs = list(zip(rows, rng.sample(range(1, SEED_SPACE), len(rows))))
    rng.shuffle(pairs)
    return table1_items(pairs)


def fingerprint(items: list[Item]) -> str:
    """Digest of the plan: labels, seeds and problem content addresses
    in run order."""
    from repro.core.digest import problem_digest

    return digest(
        [[item.label, item.seed, problem_digest(item.problem())]
         for item in items]
    )


def synthesize_item(item: Item):
    from repro.core.synthesizer import synthesize

    return synthesize(item.assay, item.allocation, seed=item.seed)


# ----------------------------------------------------------------------
# Untraced run
# ----------------------------------------------------------------------
def replay_hits(item: Item, store: dict, expected: str):
    """``HITS_PER_ITEM`` library-side cache hits on one planned problem:
    validate it, compute its content address and fetch the stored
    canonical result text -- what the service's hit path does, minus
    HTTP.  Returns ``(latencies, failed)``."""
    from repro.core.digest import problem_digest
    from repro.core.problem import SynthesisParameters, SynthesisProblem

    latencies, failed = [], 0
    for _ in range(HITS_PER_ITEM):
        t0 = perf()
        problem = SynthesisProblem(
            assay=item.assay,
            allocation=item.allocation,
            parameters=SynthesisParameters(seed=item.seed),
        )
        text = store.get(problem_digest(problem))
        latencies.append(perf() - t0)
        if text is not expected:
            failed += 1
    return latencies, failed


def run_untraced(items: list[Item]):
    """Every planned call once, each (and its cache hits) timed between
    the probe before it and the probe after it; fresh-interpreter
    set-ups are interleaved the same way."""
    from repro.core.digest import canonical_json, problem_digest
    from repro.serve.protocol import result_document

    setup_at = {len(items) * k // SETUP_SAMPLES for k in range(SETUP_SAMPLES)}
    setups: list[float] = []
    latencies: list[float] = []
    hit_latencies: list[float] = []
    unscaled: list[float] = []
    unscaled_hits: list[float] = []
    qualities = []
    store: dict[str, str] = {}
    failed_syntheses = failed_hits = 0
    probes = [probe()]
    before = probes[0]
    for index, item in enumerate(items):
        if index in setup_at:
            setups.append(timed_start(library_setup_seconds))
            before = probe()
        t0 = perf()
        try:
            result = synthesize_item(item)
        except Exception as error:  # counted in ok_ratio, never dropped
            failed_syntheses += 1
            report_failure(item.label, repr(error))
            before = probe()
            continue
        seconds = perf() - t0
        key = problem_digest(result.problem)
        store[key] = canonical_json(result_document(result, key))
        hits, hit_failed = replay_hits(item, store, store[key])
        after = probe()
        latencies.append(at_reference(seconds, before, after))
        hit_latencies += [at_reference(hit, before, after) for hit in hits]
        unscaled.append(seconds)
        unscaled_hits += hits
        probes.append(after)
        failed_hits += hit_failed
        before = after
        # Checked untimed, here rather than after the loop, so the run
        # does not hold every result (and the collector never walks them).
        errors = result_errors(result)
        if errors:
            failed_syntheses += 1
            report_failure(item.label, errors[:3])
        qualities.append(quality(result.metrics.as_dict()))
    rss = peak_rss_mb(os.getpid())
    print_unscaled(unscaled, unscaled_hits, probes)
    metrics = end_to_end(
        setups, latencies, hit_summary(hit_latencies), rss,
        len(items), failed_syntheses, qualities,
    )
    attempted = len(items) + len(hit_latencies)
    return attempted, failed_syntheses + failed_hits, metrics, qualities


def _check_submission(pair):
    """Library result of one Table I ``(row, seed)`` submission:
    ``(quality, errors)``; runs in a verification process."""
    (item,) = table1_items([pair])
    try:
        result = synthesize_item(item)
    except Exception as error:  # reported as a failure by the caller
        return None, [repr(error)]
    return quality(result.metrics.as_dict()), result_errors(result)


def check_submissions(pairs) -> list:
    """``(quality, errors)`` of the library flow for every Table I
    ``(row, seed)`` pair, computed in ``VERIFY_WORKERS`` forked
    processes that have all ended when this returns.  Forked, not
    spawned: a spawn context starts a resource-tracker process that
    only ends after this process has exited."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(VERIFY_WORKERS, mp_context=context) as pool:
        return list(pool.map(_check_submission, pairs, chunksize=4))


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------
def trace_flow(item: Item):
    """One synthesis rebuilt from the public stage functions in
    ``synthesize_problem``'s order, each call timed from here.

    Returns ``(result, seconds per layer, counts, wall seconds)``.
    """
    from repro.core.metrics import compute_metrics
    from repro.core.problem import SynthesisParameters, SynthesisProblem
    from repro.core.solution import SynthesisResult
    from repro.obs.instrument import Instrumentation
    from repro.parallel.multistart import anneal_multistart
    from repro.place.energy import build_connection_priorities
    from repro.route.router import route_tasks
    from repro.schedule.list_scheduler import schedule_assay
    from repro.schedule.validate import validate_schedule

    instr = Instrumentation()
    seconds = {}
    started = t0 = perf()
    params = SynthesisParameters(seed=item.seed)
    problem = SynthesisProblem(
        assay=item.assay, allocation=item.allocation, parameters=params
    )
    seconds["validate"] = perf() - t0

    t0 = perf()
    schedule = schedule_assay(
        problem.assay, problem.allocation, params.transport_time,
        instrumentation=instr,
    )
    validate_schedule(schedule)
    seconds["schedule"] = perf() - t0

    t0 = perf()
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
    seconds["place"] = perf() - t0

    t0 = perf()
    tasks = schedule.transport_tasks()
    routing = route_tasks(
        annealed.placement,
        tasks,
        initial_weight=params.initial_cell_weight,
        instrumentation=instr,
        engine=params.route_engine,
    )
    seconds["route"] = perf() - t0

    t0 = perf()
    metrics = compute_metrics(schedule, routing, instrumentation=instr)
    seconds["metrics"] = perf() - t0
    wall = perf() - started

    result = SynthesisResult(
        problem=problem,
        algorithm="ours",
        schedule=schedule,
        placement=annealed.placement,
        routing=routing,
        metrics=metrics,
    )
    counters = instr.counters
    counts = {
        "transport_tasks": len(tasks),
        "trials": annealed.trials,
        "accepted": annealed.accepted_moves,
        "astar_searches": counters.get("astar.searches", 0),
        "nodes_expanded": counters.get("astar.nodes_expanded", 0),
        "postponements": counters.get("route.postponements", 0),
    }
    return result, seconds, counts, wall


def trace_items(items: list[Item]):
    """Run each item through ``synthesize()`` and through the rebuilt
    flow, and aggregate the per-layer metrics of the rebuilt one.

    Returns ``(results of synthesize(), per-layer metrics, failed)``;
    a failure is an exception or a rebuilt result that differs from
    ``synthesize()``'s.
    """
    from repro.core.digest import canonical_json, problem_digest
    from repro.serve.protocol import result_document

    busy = dict.fromkeys(
        ("validate", "schedule", "place", "route", "metrics", "digest",
         "encode", "unattributed"),
        0.0,
    )
    counts: dict[str, float] = {}
    untraced = traced = 0.0
    results, failed = [], 0
    for item in items:
        try:
            t0 = perf()
            reference = synthesize_item(item)
            untraced += perf() - t0
            result, seconds, item_counts, wall = trace_flow(item)
        except Exception as error:  # counted, never dropped
            failed += 1
            report_failure(item.label, repr(error))
            continue
        traced += wall
        for name, value in seconds.items():
            busy[name] += value
        busy["unattributed"] += wall - sum(seconds.values())
        for name, value in item_counts.items():
            counts[name] = counts.get(name, 0) + value
        t0 = perf()
        key = problem_digest(result.problem)
        busy["digest"] += perf() - t0
        t0 = perf()
        canonical_json(result_document(reference, key))
        busy["encode"] += perf() - t0
        if not same_solution(result, reference):
            failed += 1
            report_failure(item.label, "traced flow differs from synthesize()")
        results.append((item, reference))

    n = max(1, len(results))

    def ms(name):
        return metric(busy[name] * 1e3 / n, "ms")

    def per_synthesis(name):
        return metric(counts.get(name, 0) / n, "count")

    metrics = {
        "assay.validate_ms": ms("validate"),
        "core.digest_ms": ms("digest"),
        "schedule.busy_ms": ms("schedule"),
        "schedule.transport_tasks": per_synthesis("transport_tasks"),
        "place.busy_ms": ms("place"),
        "place.trials": per_synthesis("trials"),
        "place.accept_ratio": metric(
            counts.get("accepted", 0) / max(1, counts.get("trials", 0)),
            "ratio",
        ),
        "place.moves_per_s": metric(
            counts.get("trials", 0) / max(busy["place"], 1e-9), "1/s"
        ),
        "route.busy_ms": ms("route"),
        "route.astar_searches": per_synthesis("astar_searches"),
        "route.nodes_expanded": per_synthesis("nodes_expanded"),
        "route.postponements": per_synthesis("postponements"),
        "core.metrics_ms": ms("metrics"),
        "core.encode_ms": ms("encode"),
        "unattributed_ms": ms("unattributed"),
        "trace.overhead_ratio": metric(untraced / max(traced, 1e-9), "ratio"),
    }
    shares = {
        name: busy[name] / max(traced, 1e-9)
        for name in ("validate", "schedule", "place", "route", "metrics",
                     "unattributed")
    }
    print(
        "trace shares of a synthesis: "
        + " ".join(f"{name}={share:.1%}" for name, share in shares.items())
    )
    return results, metrics, failed


def run_traced(items: list[Item]):
    done, metrics, failed = trace_items(items)
    for item, result in done:
        errors = result_errors(result)
        if errors:
            failed += 1
            report_failure(item.label, errors[:3])
    metrics.update(
        {name: metric(0.0, unit) for name, unit in SERVICE_LAYERS.items()}
    )
    qualities = [quality(result.metrics.as_dict()) for _, result in done]
    return len(items), failed, metrics, qualities


def run(seed: int, seconds: float, trace: bool, smoke: bool):
    """One run of the ``table1`` workload.

    Returns ``(attempted, failed, metrics, plan digest, qualities)``.
    """
    items = table1_plan(seed, seconds, smoke)
    attempted, failed, metrics, qualities = (
        run_traced(items) if trace else run_untraced(items)
    )
    return attempted, failed, metrics, fingerprint(items), qualities
