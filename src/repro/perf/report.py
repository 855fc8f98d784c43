"""Rendering of the portfolio bench: text table and JSON artifact.

The JSON payload is the schema of the committed ``BENCH_pr8.json``
artifact; :func:`write_bench_json` also writes the service tier's
artifacts.
"""

from __future__ import annotations

import json
import os
import platform
from pathlib import Path
from typing import Iterable

__all__ = [
    "portfolio_rows_to_payload",
    "render_portfolio_table",
    "write_bench_json",
]


def portfolio_rows_to_payload(
    rows: list[dict],
    label: str,
    quick: bool = False,
) -> dict:
    """Machine-readable portfolio-racing bench result.

    The paired solvers are the successive-halving portfolio race and the
    equal-candidate-budget multi-start
    (see :func:`repro.perf.harness.measure_portfolio`).  The summary
    keys are the CI gates: every row must beat multi-start on
    energy-per-CPU-second, be bit-identical across ``--jobs`` levels,
    and pass the strict design-rule checker.
    """
    return {
        "label": label,
        "kind": "portfolio",
        "quick": quick,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "benchmarks": rows,
        "all_portfolio_better": all(r["portfolio_better"] for r in rows),
        "all_deterministic_across_jobs": all(
            r["deterministic_across_jobs"] for r in rows
        ),
        "all_checker_clean": all(
            r["checker_clean"] is not False for r in rows
        ),
        "min_efficiency_ratio": (
            min(
                (r["efficiency_ratio"] for r in rows
                 if r["efficiency_ratio"] is not None),
                default=None,
            )
        ),
    }


def render_portfolio_table(rows: Iterable[dict]) -> str:
    """Portfolio race vs equal-budget multi-start, one row per benchmark.

    ``e/cpu-s`` is the improvement over the shared random initial
    energy divided by CPU seconds (``time.process_time`` summed over
    workers plus the shared greedy-init construction); the verdict
    asserts the race side is strictly more efficient, deterministic
    across job counts, and — when audited — checker-clean.
    """
    header = (
        f"{'Benchmark':12s} {'race E':>10s} {'multi E':>10s} "
        f"{'race cpu':>9s} {'multi cpu':>10s} {'race e/cpu':>11s} "
        f"{'multi e/cpu':>12s} {'ratio':>6s}  {'winner':14s} {'verdict':s}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        p, m = row["portfolio"], row["multistart"]
        ok = (
            row["portfolio_better"]
            and row["deterministic_across_jobs"]
            and row["checker_clean"] is not False
        )
        ratio = row["efficiency_ratio"]
        lines.append(
            f"{row['benchmark']:12s} "
            f"{p['energy']:>10.1f} {m['energy']:>10.1f} "
            f"{p['cpu_seconds']:>8.3f}s {m['cpu_seconds']:>9.3f}s "
            f"{p['efficiency']:>11.1f} {m['efficiency']:>12.1f} "
            f"{(f'{ratio:.2f}x' if ratio is not None else '-'):>6s}  "
            f"{p['winner_spec']:14s} {'ok' if ok else 'FAIL'}"
        )
    return "\n".join(lines)


def write_bench_json(path: Path, payload: dict) -> None:
    """Write the payload as stable, diff-friendly JSON."""
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
