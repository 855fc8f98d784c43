"""``python -m repro.experiments bench --serve`` — the service tier.

The repository's steady end-to-end benchmark is ``perfbench/`` (see
``perfbench/README.md``).  This command keeps the service comparison
that has its own gate: ``--serve`` boots a synthesis server and
measures cold submission latency, concurrent cache-hit
latency/throughput, and durable batch ingest (``BENCH_pr9.json``; see
``docs/SERVICE.md``).

Options::

    --serve              run the service tier
    --quick              fewer requests (CI)
    --output PATH        JSON artifact path

Exit codes: 0 on success; 1 when the tier's gate fails; 2 on a usage
error, including a missing tier flag.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

__all__ = ["build_parser", "run", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments bench",
        description=(
            "Service-tier benchmark (the steady end-to-end benchmark is "
            "perfbench/run.py)."
        ),
    )
    parser.add_argument("--quick", action="store_true",
                        help="fewer requests")
    parser.add_argument("--serve", action="store_true",
                        help="run the service tier: boot a "
                             "synthesis server, measure cold submission "
                             "latency, concurrent cache-hit latency/"
                             "throughput and durable batch ingest, and "
                             "gate on the cache-hit speedup (artifact: "
                             "BENCH_pr9.json; see docs/SERVICE.md)")
    parser.add_argument("--output", type=Path, default=None,
                        help="JSON artifact path (default: BENCH_pr9.json)")
    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not args.serve:
        parser.error("choose a tier: --serve")
    from repro.serve.loadgen import run_serve_bench

    return run_serve_bench(quick=args.quick, output=args.output)


def main(argv: list[str] | None = None) -> None:  # pragma: no cover
    raise SystemExit(run(sys.argv[1:] if argv is None else argv))


if __name__ == "__main__":  # pragma: no cover
    main()
