"""``python -m repro.experiments bench`` — the portfolio and service tiers.

The repository's steady end-to-end benchmark is ``perfbench/`` (see
``perfbench/README.md``).  This command keeps the two solver/service
comparisons that have their own gates:

* ``--portfolio N`` — a successive-halving race of ``N`` heterogeneous
  SA arms versus classic ``restarts = N/2`` multi-start at the same
  total candidate budget (see ``docs/PERFORMANCE.md``).  It writes the
  ``BENCH_pr8.json`` artifact and exits non-zero unless the race is
  strictly better on energy-per-CPU-second, bit-identical across
  ``--jobs`` levels, and clean under the strict checker.
* ``--serve`` — boots a synthesis server and measures cold submission
  latency, then concurrent cache-hit latency/throughput
  (``BENCH_pr9.json``); with ``--shards N`` the sharded tier
  (``BENCH_pr10.json``; see ``docs/SERVICE.md``).

Options::

    --portfolio N        race N arms vs equal-budget multi-start on
                         Scale100/200 (--rungs sets the halving rungs)
    --serve              run the service tier (--shards N: sharded)
    --quick              smallest subset (CI)
    --benchmarks A B     explicit benchmark subset (portfolio tier)
    --seed N             annealer seed (default: 1)
    --check MODE         design-rule audit of the portfolio pipeline:
                         off, report (default), or strict
    --output PATH        JSON artifact path

Exit codes: 0 on success; 1 when a tier's gate fails; 2 on a usage
error, including a missing tier flag.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.benchmarks.registry import benchmark_names
from repro.check.report import CHECK_MODES
from repro.perf.harness import measure_portfolio
from repro.perf.report import (
    portfolio_rows_to_payload,
    render_portfolio_table,
    write_bench_json,
)

__all__ = ["build_parser", "run", "main"]

#: Benchmarks the ``--portfolio`` tier gates on: the two largest scale
#: assays, where CPU efficiency is what matters.
PORTFOLIO_BENCHMARKS = ("Scale100", "Scale200")

#: ``--quick`` subset of the portfolio tier (CI smoke).
QUICK_PORTFOLIO_BENCHMARKS = ("Scale50",)

#: Default artifact for the portfolio tier (``--portfolio``).
DEFAULT_PORTFOLIO_OUTPUT = "BENCH_pr8.json"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments bench",
        description=(
            "Portfolio-racing and service-tier benchmarks (the steady "
            "end-to-end benchmark is perfbench/run.py)."
        ),
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="smallest subset: "
             f"{', '.join(QUICK_PORTFOLIO_BENCHMARKS)} for --portfolio, "
             "fewer requests for --serve",
    )
    parser.add_argument(
        "--benchmarks", nargs="+", metavar="NAME", default=None,
        choices=benchmark_names(),
        help="explicit benchmark subset for --portfolio "
             f"(default: {', '.join(PORTFOLIO_BENCHMARKS)})",
    )
    parser.add_argument("--seed", type=int, default=1,
                        help="annealer seed (default: 1)")
    parser.add_argument("--serve", action="store_true",
                        help="run the service tier: boot a "
                             "synthesis server, measure cold submission "
                             "latency then concurrent cache-hit latency/"
                             "throughput, and gate on the cache-hit "
                             "speedup (artifact: BENCH_pr9.json; see "
                             "docs/SERVICE.md)")
    parser.add_argument("--shards", type=int, metavar="N", default=None,
                        choices=(1, 2, 4),
                        help="with --serve: benchmark the sharded tier "
                             "instead — boot shard counts up to N behind "
                             "the digest-routing front, verify byte/digest "
                             "identity across serving paths, and measure "
                             "loaded throughput per shard count "
                             "(artifact: BENCH_pr10.json; see "
                             "docs/SERVICE.md \"Scaling out\")")
    parser.add_argument("--portfolio", type=int, metavar="N", default=None,
                        help="run the portfolio tier: race N "
                             "successive-halving arms against equal-budget "
                             "multi-start (restarts = N/2) on "
                             f"{', '.join(PORTFOLIO_BENCHMARKS)}, gate on "
                             "strictly better energy-per-CPU-second, "
                             "jobs-determinism, and the strict checker")
    parser.add_argument("--rungs", type=int, default=3,
                        help="successive-halving rungs for --portfolio "
                             "(default: 3)")
    parser.add_argument("--check",
                        choices=CHECK_MODES,
                        default="report",
                        help="audit the portfolio pipeline with the "
                             "independent design-rule checker "
                             "(default: report)")
    parser.add_argument("--output", type=Path, default=None,
                        help="JSON artifact path (default: "
                             f"{DEFAULT_PORTFOLIO_OUTPUT} for --portfolio, "
                             "BENCH_pr9.json / BENCH_pr10.json for --serve)")
    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.serve:
        if args.shards is not None:
            from repro.serve.loadgen import run_shard_bench

            return run_shard_bench(
                max_shards=args.shards, quick=args.quick,
                output=args.output,
            )
        from repro.serve.loadgen import run_serve_bench

        return run_serve_bench(quick=args.quick, output=args.output)
    if args.shards is not None:
        parser.error("--shards requires --serve")
    if args.portfolio is None:
        parser.error("choose a tier: --portfolio N or --serve")
    return _run_portfolio_tier(args)


def _run_portfolio_tier(args) -> int:
    """The ``--portfolio N`` branch: racing vs equal-budget multi-start.

    Exit 1 when any row fails a gate: the race must be strictly more
    energy-per-CPU-second efficient than ``restarts = N/2`` classic
    multi-start at the same candidate budget, bit-identical across
    worker counts, and clean under the strict design-rule checker.
    """
    if args.benchmarks is not None:
        names = tuple(args.benchmarks)
    elif args.quick:
        names = QUICK_PORTFOLIO_BENCHMARKS
    else:
        names = PORTFOLIO_BENCHMARKS
    output = args.output or Path(DEFAULT_PORTFOLIO_OUTPUT)

    rows = measure_portfolio(
        names,
        arms=args.portfolio,
        rungs=args.rungs,
        seed=args.seed,
        check=args.check != "off",
    )
    print(render_portfolio_table(rows))

    payload = portfolio_rows_to_payload(
        rows, label=output.stem, quick=args.quick
    )
    write_bench_json(output, payload)
    print(f"\nwrote {output}")

    status = 0
    slower = [r["benchmark"] for r in rows if not r["portfolio_better"]]
    if slower:
        print(
            "error: portfolio race less CPU-efficient than equal-budget "
            "multi-start on: " + ", ".join(slower),
            file=sys.stderr,
        )
        status = 1
    drifting = [
        r["benchmark"] for r in rows if not r["deterministic_across_jobs"]
    ]
    if drifting:
        print(
            "error: portfolio result varies across --jobs on: "
            + ", ".join(drifting),
            file=sys.stderr,
        )
        status = 1
    dirty = [r["benchmark"] for r in rows if r["checker_clean"] is False]
    if dirty:
        print(
            "error: portfolio pipeline failed the strict checker on: "
            + ", ".join(dirty),
            file=sys.stderr,
        )
        status = 1
    if status == 0:
        print(
            f"portfolio gate OK: {len(rows)} benchmark(s), "
            "better e/cpu-s, jobs-deterministic"
            + ("" if args.check == "off" else ", checker-clean")
        )
    return status


def main(argv: list[str] | None = None) -> None:  # pragma: no cover
    raise SystemExit(run(sys.argv[1:] if argv is None else argv))


if __name__ == "__main__":  # pragma: no cover
    main()
