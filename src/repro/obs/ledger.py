"""Persistent run ledger: one JSONL record per pipeline run.

Every synthesis run can append a compact, append-only record to a
ledger file (default ``.repro/ledger.jsonl``).  A record identifies
*what* ran by a content digest — SHA-256 over the canonical JSON of the
assay, the allocation, and the synthesis parameters that can change an
answer (see :mod:`repro.core.digest`; ``jobs``, for one, is excluded
because parallelism is bit-identical by construction) — plus *how it
went*:
phase wall-clock times, final energies/metrics, checker status, and the
histogram summaries (A* search latency percentiles etc.).

Because the digest is content-addressed, repeated runs of the same
problem with the same knobs share a digest, so ``python -m repro
stats`` groups them into one row (run count, median and last CPU time).

Record schema (version 1)::

    {
      "schema": 1,
      "ts": 1754700000.0,            # unix time of the append
      "digest": "ab12…",             # problem+parameter content address
      "benchmark": "pcr",            # assay name (for humans/filters)
      "algorithm": "ours",
      "seed": 0,
      "restarts": 1, "jobs": 2,
      "engines": {"placement": "incremental", "route": "flat"},
      "grid": [14, 14],
      "phase_times": {"schedule": …, "place": …, "route": …, "metrics": …},
      "cpu_time": 1.23,
      "metrics": {…},                # SynthesisMetrics.as_dict()
      "check": {"mode": "report", "ok": true, "errors": 0},   # or null
      "histograms": {"astar.search_seconds": {"count": …, "p50": …, …}},
      "checkpoints": [{"worker": 0, "restart": 1, "t": …, "temperature": …,
                       "energy": …}, …],   # optional (live mode)
      "source": "serve",                   # optional (server-side runs;
                                           # filter with 'stats --serve')
    }

The ledger is **off by default in the Python API** — ``synthesize``
never writes files behind the caller's back — and on by default in the
CLI (``--no-ledger`` opts out, ``--ledger PATH`` redirects).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from repro.core.digest import problem_digest
from repro.obs.sinks import read_jsonl

__all__ = [
    "DEFAULT_LEDGER_PATH",
    "LEDGER_SCHEMA_VERSION",
    "build_record",
    "append_record",
    "read_ledger",
    "record_run",
    "run_stats",
]

DEFAULT_LEDGER_PATH = Path(".repro") / "ledger.jsonl"
LEDGER_SCHEMA_VERSION = 1


# ----------------------------------------------------------------------
# Record construction / IO
# ----------------------------------------------------------------------
def build_record(
    result: Any,
    histograms: Mapping[str, Mapping[str, Any]] | None = None,
    checkpoints: Sequence[Mapping[str, Any]] | None = None,
    timestamp: float | None = None,
    source: str | None = None,
) -> dict[str, Any]:
    """Build the schema-1 ledger record for one finished run.

    *source* tags where the run came from (the synthesis server writes
    ``"serve"``); omitted for classic CLI/API runs, so old records and
    new CLI records look identical.
    """
    problem = result.problem
    params = problem.parameters
    grid = result.placement.grid
    check = None
    if result.check_report is not None:
        check = {
            "mode": params.check,
            "ok": result.check_report.ok,
            "errors": result.check_report.error_count,
        }
    record: dict[str, Any] = {
        "schema": LEDGER_SCHEMA_VERSION,
        "ts": time.time() if timestamp is None else timestamp,
        "digest": problem_digest(problem),
        "benchmark": problem.assay.name,
        "algorithm": result.algorithm,
        "seed": params.seed,
        "restarts": params.restarts,
        "jobs": params.jobs,
        "engines": {
            "placement": params.placement_engine,
            "route": params.route_engine,
        },
        "grid": [grid.width, grid.height],
        "phase_times": {k: round(v, 6) for k, v in result.phase_times.items()},
        "cpu_time": round(result.metrics.cpu_time, 6),
        "metrics": result.metrics.as_dict(),
        "check": check,
        "histograms": dict(histograms or {}),
    }
    if source is not None:
        record["source"] = source
    if checkpoints:
        record["checkpoints"] = [dict(point) for point in checkpoints]
    return record


def append_record(record: Mapping[str, Any], path: str | Path | None = None) -> Path:
    """Append one record to the ledger (creating parent dirs), return its path."""
    ledger = Path(path) if path is not None else DEFAULT_LEDGER_PATH
    ledger.parent.mkdir(parents=True, exist_ok=True)
    line = json.dumps(record, sort_keys=True, default=repr)
    with open(ledger, "a", encoding="utf-8") as stream:
        stream.write(line + "\n")
        stream.flush()
        os.fsync(stream.fileno())
    return ledger


def record_run(
    result: Any,
    instrumentation: Any = None,
    path: str | Path | None = None,
    checkpoints: Sequence[Mapping[str, Any]] | None = None,
    source: str | None = None,
) -> Path:
    """Build and append a ledger record for *result* in one call.

    *instrumentation* (optional) contributes its histogram summaries;
    *source* tags the record's origin (see :func:`build_record`).
    """
    histograms = None
    if instrumentation is not None:
        histograms = instrumentation.histogram_summaries()
    record = build_record(
        result, histograms=histograms, checkpoints=checkpoints, source=source
    )
    return append_record(record, path)


def read_ledger(path: str | Path | None = None) -> list[dict[str, Any]]:
    """All parseable records of the ledger, oldest first.

    Damaged lines (e.g. from a run killed mid-append on a filesystem
    without atomic appends) are skipped, not fatal — the ledger must
    stay readable even after a crash.
    """
    ledger = Path(path) if path is not None else DEFAULT_LEDGER_PATH
    if not ledger.exists():
        return []
    return list(read_jsonl(ledger))


# ----------------------------------------------------------------------
# The ``python -m repro stats`` CLI
# ----------------------------------------------------------------------
def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0


def _filter_records(
    records: Iterable[dict[str, Any]],
    benchmark: str | None = None,
    digest: str | None = None,
    last: int | None = None,
    source: str | None = None,
) -> list[dict[str, Any]]:
    selected = [
        r
        for r in records
        if (benchmark is None or r.get("benchmark") == benchmark)
        and (digest is None or str(r.get("digest", "")).startswith(digest))
        and (source is None or r.get("source") == source)
    ]
    if last is not None and last > 0:
        selected = selected[-last:]
    return selected


def _aggregate(records: Sequence[dict[str, Any]]) -> list[str]:
    """Per-digest summary table lines."""
    groups: dict[str, list[dict[str, Any]]] = {}
    for record in records:
        groups.setdefault(str(record.get("digest", "?")), []).append(record)
    lines = [
        f"{'digest':<12} {'benchmark':<12} {'runs':>4} "
        f"{'cpu med':>9} {'cpu last':>9} {'energy/exec':>12}"
    ]
    for digest, group in sorted(groups.items(), key=lambda kv: kv[1][-1].get("ts", 0)):
        cpu_times = [float(r.get("cpu_time", 0.0)) for r in group]
        newest = group[-1]
        exec_time = newest.get("metrics", {}).get("execution_time_s")
        lines.append(
            f"{digest[:12]:<12} {str(newest.get('benchmark', '?'))[:12]:<12} "
            f"{len(group):>4} {_median(cpu_times):>9.3f} {cpu_times[-1]:>9.3f} "
            f"{exec_time if exec_time is not None else '-':>12}"
        )
    return lines


def run_stats(argv: Sequence[str] | None = None) -> int:
    """Implementation of ``python -m repro stats`` (returns exit code)."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro stats",
        description="Summarise the run ledger.",
    )
    parser.add_argument(
        "--ledger",
        default=str(DEFAULT_LEDGER_PATH),
        help=f"ledger path (default: {DEFAULT_LEDGER_PATH})",
    )
    parser.add_argument("--benchmark", help="only records of this assay name")
    parser.add_argument("--digest", help="only records whose digest starts with this")
    parser.add_argument(
        "--last", type=int, help="only the newest N matching records"
    )
    parser.add_argument(
        "--serve",
        action="store_true",
        help="only records written by the synthesis server "
        "(tagged 'source: serve'; see docs/SERVICE.md)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="print the matching records as JSON instead of a table",
    )
    args = parser.parse_args(argv)

    records = _filter_records(
        read_ledger(args.ledger),
        benchmark=args.benchmark,
        digest=args.digest,
        last=args.last,
        source="serve" if args.serve else None,
    )
    if not records:
        print(f"no ledger records match (ledger: {args.ledger})")
        return 0

    if args.json:
        print(json.dumps(records, indent=2, sort_keys=True))
    else:
        print(f"{len(records)} record(s) from {args.ledger}")
        for line in _aggregate(records):
            print(line)
    return 0

