"""Shared pieces of the benchmark: statistics, the host-speed probe,
correctness gate, plan fingerprints, fresh-process set-up timing and
process bookkeeping.

Nothing here imports the program at module load, so ``run.py`` can
report a missing source tree before touching it.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: Root of the checkout the benchmark runs in (the parent of this
#: directory); the program is imported from ``<root>/src``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Throwaway state (server directories); removed after every run.
WORK_DIR = ROOT / ".perfbench_tmp"

#: Samples a latency tail must leave beyond it.
TAIL_BEYOND = 10
#: Percentile of the cache-hit tail (hits are counted in thousands).
HIT_TAIL_PERCENT = 99

perf = time.perf_counter


def median(values):
    return statistics.median(values)


def mean(values):
    return statistics.fmean(values) if values else 0.0


def tail(values):
    """The highest percentile with at least ``TAIL_BEYOND`` samples
    beyond it: the value at sorted rank ``n - TAIL_BEYOND - 1``, but
    never below the median rank (plans of fewer than
    ``2 * TAIL_BEYOND + 2`` operations report the median).  The rank
    depends only on the plan size, never on the measurements."""
    ordered = sorted(values)
    rank = max(len(ordered) - TAIL_BEYOND - 1, len(ordered) // 2)
    return ordered[rank]


def percentile(values, percent: float):
    """The value at sorted rank ``floor(n * percent / 100)``."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, len(ordered) * percent // 100)]


def digest(document) -> str:
    """Short SHA-256 of a JSON-able document (plan fingerprints)."""
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# ----------------------------------------------------------------------
# Host-speed probe
# ----------------------------------------------------------------------
#: Seconds the probe takes on the reference host in its fast state.
#: Every reported time is scaled to this speed (see ``at_reference``).
REFERENCE_PROBE_S = 0.025


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: int, y: int) -> None:
        self.x, self.y = x, y


def probe() -> float:
    """Seconds of a fixed pure-Python reference computation.

    The shared host runs identical code in speed states up to 2x apart
    that last from seconds to minutes.  This probe (dict updates, float
    arithmetic, small-object allocation and a keyed sort -- the
    interpreter work the program's hot loops are made of) slows down
    with them.  It never calls the program, so a change to the program
    cannot move it; the garbage collector is off while it runs, so the
    program's heap cannot either.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = perf()
        table: dict[int, int] = {}
        rng = random.Random(1)
        total = 0.0
        for i in range(30000):
            key = rng.randrange(1000)
            table[key] = table.get(key, 0) + i
            total += (i * 1.0001) ** 0.5
        points = [_Point(i % 97, i % 89) for i in range(20000)]
        for point in points:
            total += abs(point.x - point.y) + min(point.x, point.y)
        points.sort(key=lambda point: (point.y, point.x))
        return perf() - started
    finally:
        if enabled:
            gc.enable()


def probe_on(core: int) -> float:
    """``probe()`` with the calling thread moved to *core* meanwhile."""
    saved = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {core})
    try:
        return probe()
    finally:
        os.sched_setaffinity(0, saved)


def at_reference(seconds: float, before: float, after: float,
                 reference: float = REFERENCE_PROBE_S) -> float:
    """*seconds* measured between two probes, scaled to the reference
    speed: ``seconds * reference / mean(before, after)``."""
    return seconds * 2.0 * reference / (before + after)


def print_unscaled(latencies, hits, probes) -> None:
    """One informational line: the medians as measured, before scaling
    to reference speed, and the median probe."""
    print(f"unscaled latency_p50_ms={median(latencies) * 1e3:.3f} "
          f"hit_p50_ms={median(hits) * 1e3:.4f} "
          f"probe_median_ms={median(probes) * 1e3:.3f}")


def summary(samples) -> tuple[float, float, float]:
    """``(median, tail, rate)`` of per-operation seconds; the rate is
    operations per second of a closed loop running them back to back."""
    return median(samples), tail(samples), len(samples) / sum(samples)


def hit_summary(samples) -> tuple[float, float, float]:
    """``(median, p99, rate)`` of cache-hit seconds."""
    return (median(samples), percentile(samples, HIT_TAIL_PERCENT),
            len(samples) / sum(samples))


def end_to_end(
    setups, latencies, hits, rss_mb, syntheses, failed_syntheses, qualities,
) -> dict:
    """The end-to-end metrics every workload reports.

    *latencies* are per-synthesis seconds; *hits* is the cache-hit
    ``(median s, tail s, per second)``.  ``ok_ratio`` counts syntheses
    only (library calls or cold jobs, each checked by the gate), so one
    failing synthesis moves it by ``1 / syntheses``.
    """
    latency_p50, latency_tail, throughput = summary(latencies)
    hit_p50, hit_tail, hit_rate = hits
    return {
        "setup_s": metric(median(setups), "s"),
        "latency_p50_ms": metric(latency_p50 * 1e3, "ms"),
        "latency_tail_ms": metric(latency_tail * 1e3, "ms"),
        "throughput_per_s": metric(throughput, "1/s"),
        "hit_p50_ms": metric(hit_p50 * 1e3, "ms"),
        "hit_tail_ms": metric(hit_tail * 1e3, "ms"),
        "hit_per_s": metric(hit_rate, "1/s"),
        "peak_rss_mb": metric(rss_mb, "MiB"),
        "ok_ratio": metric(1.0 - failed_syntheses / syntheses, "ratio"),
        "makespan_sum_s": metric(
            sum(q["execution_time_s"] for q in qualities), "s"
        ),
        "channel_mm_sum": metric(
            sum(q["total_channel_length_mm"] for q in qualities), "mm"
        ),
    }


#: Per-layer metrics of the service tier, reported as 0 by the library
#: workloads, which never reach it.
SERVICE_LAYERS = {
    "serve.accept_ms": "ms",
    "serve.queue_wait_ms": "ms",
    "serve.execute_ms": "ms",
    "serve.reply_ms": "ms",
    "serve.worker_synth_ms": "ms",
    "parallel.dispatch_ms": "ms",
    "serve.cache_hit_ratio": "ratio",
    "serve.journal_records_per_job": "count",
    "serve.rejected": "count",
    "parallel.pool_rebuilds": "count",
}


# ----------------------------------------------------------------------
# Correctness gate (always outside timed regions)
# ----------------------------------------------------------------------
def quality(metrics: dict) -> dict:
    """The deterministic part of a metrics document (``as_dict()`` or
    the service's ``metrics``); cpu time is a measurement."""
    return {k: v for k, v in metrics.items() if k != "cpu_time_s"}


def solution_key(result):
    """Placement and routed paths of a result, as comparable values."""
    blocks = tuple(
        sorted(
            (b.cid, b.x, b.y, b.width, b.height)
            for b in result.placement.blocks()
        )
    )
    paths = tuple(
        (p.task.task_id, tuple(p.cells), p.slot.start, p.slot.end,
         p.postponement)
        for p in result.routing.paths
    )
    return blocks, paths


def same_solution(a, b) -> bool:
    """True when two results carry the same metrics, placement and
    paths."""
    return quality(a.metrics.as_dict()) == quality(
        b.metrics.as_dict()
    ) and solution_key(a) == solution_key(b)


def result_errors(result) -> list[str]:
    """Checker violations plus the makespan lower-bound test; empty
    when the result is correct."""
    from repro.check import check_result
    from repro.schedule.bounds import makespan_lower_bounds

    problem = result.problem
    errors = [
        f"{v.rule_id}: {v.detail}" for v in check_result(result).violations
    ]
    bound = makespan_lower_bounds(
        problem.assay, problem.allocation, problem.parameters.transport_time
    ).best
    if result.metrics.execution_time < bound - 1e-9:
        errors.append(
            f"makespan {result.metrics.execution_time} below lower "
            f"bound {bound}"
        )
    return errors


def report_failure(what: str, detail) -> None:
    print(f"FAILED {what}: {detail}", file=sys.stderr)


# ----------------------------------------------------------------------
# Fresh-process set-up time
# ----------------------------------------------------------------------
#: A fresh interpreter imports the library and synthesizes PCR once; it
#: prints one line as soon as the result exists.
_FRESH_LIBRARY = (
    "import sys; sys.path.insert(0, sys.argv[1]);"
    "from repro import get_benchmark, synthesize;"
    "case = get_benchmark('PCR');"
    "result = synthesize(case.assay, case.allocation);"
    "print('ok', result.metrics.execution_time, flush=True)"
)


#: A fresh interpreter imports standard-library modules the program's
#: start also loads, runs ``probe()`` and prints one line; it never
#: imports the program.
_FRESH_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]);"
    "import asyncio, decimal, email.parser, hashlib, http.client, json,"
    " multiprocessing, random;"
    "import common; common.probe(); print('ok', flush=True)"
)
#: Seconds ``start_probe()`` takes on the reference host in its fast
#: state.
REFERENCE_START_S = 0.11


def _first_line_seconds(code: str, path: Path) -> float:
    """Seconds from spawning ``python -c code path`` to its first line,
    which must start with ``ok``."""
    started = perf()
    child = subprocess.Popen(
        [sys.executable, "-c", code, str(path)],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    try:
        line = child.stdout.readline()
        elapsed = perf() - started
    finally:
        child.stdout.close()
        child.wait(timeout=60)
    if not line.startswith("ok") or child.returncode != 0:
        raise RuntimeError(f"fresh process produced no result: {code[:60]}")
    return elapsed


def library_setup_seconds() -> float:
    """Seconds from spawning a fresh interpreter to its first result."""
    return _first_line_seconds(_FRESH_LIBRARY, SRC)


def start_probe() -> float:
    """Seconds to start a fresh interpreter that imports standard-library
    modules and runs ``probe()``.

    Set-up time is process creation, imports and page faults more than
    interpreter work, and the host's speed states move those too; on
    the reference host, set-ups scaled by this probe spread 4% from run
    to run against 12% when scaled by ``probe()`` and 19% unscaled.
    """
    return _first_line_seconds(_FRESH_PROBE, Path(__file__).resolve().parent)


def timed_start(start) -> float:
    """``start()`` (which returns seconds) between two start probes,
    scaled to the reference speed."""
    before = start_probe()
    seconds = start()
    return at_reference(seconds, before, start_probe(), REFERENCE_START_S)


# ----------------------------------------------------------------------
# Process bookkeeping (Linux /proc)
# ----------------------------------------------------------------------
def _stat_fields(pid: int) -> list[str] | None:
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as stat:
            text = stat.read()
    except OSError:
        return None
    # The command name may contain spaces; fields resume after its ")".
    return text[text.rindex(")") + 2:].split()


def descendants(pid: int) -> list[int]:
    """Every live descendant of *pid*."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(int(entry))
            if fields is not None:
                children.setdefault(int(fields[1]), []).append(int(entry))
    found, frontier = [], [pid]
    while frontier:
        for child in children.get(frontier.pop(), []):
            found.append(child)
            frontier.append(child)
    return found


def peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of one process, in MiB."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def alive(pid: int) -> bool:
    """True while *pid* exists and is not a zombie."""
    fields = _stat_fields(pid)
    return fields is not None and fields[0] != "Z"


def end_descendants(timeout: float = 30.0) -> list[int]:
    """Wait until every live descendant of this process has ended,
    killing those still running after *timeout* seconds, then reap this
    process's ended children.  Returns the pids that had to be killed."""
    deadline = perf() + timeout
    killed: list[int] = []
    while True:
        left = [pid for pid in descendants(os.getpid()) if alive(pid)]
        if not left:
            break
        if perf() > deadline:
            for pid in set(left) - set(killed):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                killed.append(pid)
        time.sleep(0.02)
    while True:
        try:
            if os.waitpid(-1, os.WNOHANG)[0] == 0:
                break
        except ChildProcessError:
            break
    return killed
