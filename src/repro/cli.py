"""Command-line interface: ``repro-synthesize``.

Synthesise a benchmark or a custom assay JSON from the shell::

    repro-synthesize PCR                         # benchmark by name
    repro-synthesize my_assay.json -m 3 -d 2     # custom assay + allocation
    repro-synthesize CPA --algorithm baseline --svg layout.svg
    repro-synthesize IVD --show-layout --show-schedule
    repro-synthesize PCR --profile --trace trace.jsonl
    repro-synthesize CPA --restarts 8 --jobs 4   # multi-start placement
    repro-synthesize CPA --portfolio 8 --jobs 4  # raced arm portfolio

The assay argument is resolved as a benchmark name first and as a JSON
file path (written by :func:`repro.assay.dump_assay`) second.  For
custom assays the allocation must be given through ``-m/-H/-f/-d``;
benchmarks carry their Table I allocation.

``--profile`` prints the per-phase time breakdown, algorithm counters,
and latency histograms after the run, and samples process resources
(RSS / CPU / GC) in the background; ``--trace PATH.jsonl`` streams the
full structured event trace (see ``docs/OBSERVABILITY.md``);
``--live`` renders a refreshing per-worker progress line during
multi-start placement.  All compose with either ``--algorithm``.

Every successful run appends one record to the run ledger
(``.repro/ledger.jsonl`` by default; ``--ledger PATH`` redirects,
``--no-ledger`` opts out) — query it with ``python -m repro stats``.

Exit codes: 0 on success, 2 for command-line usage errors (argparse),
:data:`EXIT_REPRO_ERROR` (3) for any :class:`~repro.errors.ReproError`
— printed as a one-line message, never a traceback.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.assay.io import load_assay
from repro.benchmarks.registry import benchmark_names, get_benchmark
from repro.check.report import CHECK_MODES
from repro.components.allocation import Allocation
from repro.core.baseline import synthesize_baseline
from repro.core.problem import SynthesisParameters
from repro.core.synthesizer import synthesize
from repro.errors import ReproError
from repro.obs.instrument import Instrumentation
from repro.obs.sinks import JsonlSink, NullSink
from repro.place.annealing import PLACEMENT_ENGINES

__all__ = ["build_parser", "run", "main", "EXIT_REPRO_ERROR"]

#: Exit code for domain failures (:class:`ReproError`), distinct from
#: argparse's usage-error code 2 and the generic 1.
EXIT_REPRO_ERROR = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-synthesize",
        description=(
            "Physical synthesis of a flow-based microfluidic biochip "
            "with distributed channel storage (DATE 2019)."
        ),
    )
    parser.add_argument(
        "assay",
        help=(
            "benchmark name "
            f"({', '.join(benchmark_names())}) or path to an assay JSON"
        ),
    )
    parser.add_argument(
        "--algorithm",
        choices=("ours", "baseline"),
        default="ours",
        help="synthesis flow to run (default: ours)",
    )
    parser.add_argument("-m", "--mixers", type=int, default=0,
                        help="allocated mixers (custom assays)")
    parser.add_argument("-H", "--heaters", type=int, default=0,
                        help="allocated heaters (custom assays)")
    parser.add_argument("-f", "--filters", type=int, default=0,
                        help="allocated filters (custom assays)")
    parser.add_argument("-d", "--detectors", type=int, default=0,
                        help="allocated detectors (custom assays)")
    parser.add_argument("--seed", type=int, default=1,
                        help="annealer seed (default: 1)")
    parser.add_argument("--engine",
                        choices=PLACEMENT_ENGINES,
                        default="incremental",
                        help="SA placement engine: the incremental "
                             "delta-energy workspace or the numpy batch "
                             "best-of-K kernel, which matches it at "
                             "--batch-size 1 (default: incremental)")
    parser.add_argument("--batch-size", type=int, default=16,
                        help="candidates proposed per SA step by "
                             "--engine batch; 1 degenerates to the "
                             "incremental move loop bit for bit, larger "
                             "values trade acceptance rate for "
                             "vectorized throughput (default: 16)")
    parser.add_argument("--restarts", type=int, default=1,
                        help="independent SA restarts; the best placement "
                             "wins deterministically (default: 1)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the restarts; the "
                             "result is identical for every value "
                             "(default: 1, 0 = one per CPU)")
    parser.add_argument("--portfolio", type=int, default=0, metavar="N",
                        help="race N heterogeneous SA configurations "
                             "(arms) under successive halving instead of "
                             "identical restarts; deterministic for any "
                             "--jobs value (default: 0 = off)")
    parser.add_argument("--arms", type=str, default="", metavar="SPEC",
                        help="explicit comma-separated arm specs for the "
                             "portfolio race, e.g. "
                             "'inc,batch:k=64,inc:init=greedy:w=2/1/1' "
                             "(implies portfolio mode; default: the "
                             "built-in palette)")
    parser.add_argument("--rungs", type=int, default=3,
                        help="successive-halving checkpoint rungs for "
                             "--portfolio (default: 3)")
    parser.add_argument("--seed-derivation",
                        choices=("legacy", "splitmix"),
                        default="legacy",
                        help="restart/arm seed derivation: 'legacy' is "
                             "the historical seed*1000+k formula "
                             "(bit-compatible, collides across nearby "
                             "seeds), 'splitmix' the collision-free "
                             "SplitMix64 mix (default: legacy)")
    parser.add_argument("--tc", type=float, default=2.0,
                        help="transport time t_c in seconds (default: 2.0)")
    parser.add_argument("--check",
                        choices=CHECK_MODES,
                        default="off",
                        help="audit the result with the independent "
                             "design-rule checker: 'report' attaches and "
                             "prints the verdict, 'strict' additionally "
                             "fails the run on any violation "
                             "(default: off)")
    parser.add_argument("--svg", type=Path, default=None,
                        help="write the routed layout to this SVG file")
    parser.add_argument("--show-layout", action="store_true",
                        help="print the ASCII layout")
    parser.add_argument("--show-schedule", action="store_true",
                        help="print the ASCII schedule")
    parser.add_argument("--profile", action="store_true",
                        help="print the per-phase time breakdown and "
                             "algorithm counters after the run")
    parser.add_argument("--trace", type=Path, default=None, metavar="PATH.jsonl",
                        help="stream structured instrumentation events "
                             "(spans, counters, SA convergence) to this "
                             "JSONL file; convert with "
                             "'python -m repro trace2chrome'")
    parser.add_argument("--live", action="store_true",
                        help="render a live per-worker progress line "
                             "(SA temperature/energy) during multi-start "
                             "placement")
    parser.add_argument("--ledger", type=Path, default=None, metavar="PATH",
                        help="append this run's record to the given run "
                             "ledger (default: .repro/ledger.jsonl; "
                             "query with 'python -m repro stats')")
    parser.add_argument("--no-ledger", action="store_true",
                        help="skip the run-ledger append entirely")
    return parser


def _resolve(args: argparse.Namespace):
    """Return (assay, allocation) from a benchmark name or JSON path."""
    if args.assay in benchmark_names():
        case = get_benchmark(args.assay)
        return case.assay, case.allocation
    path = Path(args.assay)
    if not path.exists():
        raise ReproError(
            f"{args.assay!r} is neither a benchmark name nor an existing "
            "assay file"
        )
    assay = load_assay(path)
    allocation = Allocation(
        mixers=args.mixers,
        heaters=args.heaters,
        filters=args.filters,
        detectors=args.detectors,
    )
    return assay, allocation


def run(argv: list[str]) -> int:
    """Parse *argv* and run the requested synthesis; returns exit code."""
    args = build_parser().parse_args(argv)
    try:
        sink = JsonlSink(args.trace) if args.trace is not None else NullSink()
    except OSError as error:
        print(f"error: cannot open trace file: {error}", file=sys.stderr)
        return EXIT_REPRO_ERROR
    instrumentation = Instrumentation(sink)
    sampler = None
    if args.profile:
        from repro.obs.resources import ResourceSampler

        sampler = ResourceSampler(instrumentation)
    monitor = None
    if args.live:
        from repro.obs.live import LiveProgressMonitor

        monitor = LiveProgressMonitor(
            stream=sys.stderr, instrumentation=instrumentation
        )
    try:
        assay, allocation = _resolve(args)
        parameters = SynthesisParameters(
            seed=args.seed,
            transport_time=args.tc,
            placement_engine=args.engine,
            sa_batch_size=args.batch_size,
            restarts=args.restarts,
            jobs=args.jobs,
            portfolio=args.portfolio,
            arms=args.arms,
            rungs=args.rungs,
            seed_derivation=args.seed_derivation,
            check=args.check,
        )
        if sampler is not None:
            sampler.start()
        if monitor is not None:
            monitor.start()
        if args.algorithm == "ours":
            result = synthesize(
                assay, allocation, parameters, instrumentation=instrumentation
            )
        else:
            result = synthesize_baseline(
                assay, allocation, parameters, instrumentation=instrumentation
            )
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_REPRO_ERROR
    finally:
        if monitor is not None:
            monitor.stop()
        if sampler is not None:
            sampler.stop()
        sink.close()

    if not args.no_ledger:
        from repro.obs.ledger import record_run

        try:
            ledger_path = record_run(
                result,
                instrumentation=instrumentation,
                path=args.ledger,
                checkpoints=monitor.checkpoints() if monitor is not None else None,
            )
        except OSError as error:
            print(f"warning: ledger append failed: {error}", file=sys.stderr)
        else:
            # On stderr so stdout stays a pure function of the synthesis
            # configuration (the reproducibility tests diff it).
            print(f"ledger: appended to {ledger_path}", file=sys.stderr)

    print(result.summary())
    if result.check_report is not None:
        print()
        print(result.check_report.render())
    if args.show_layout:
        from repro.viz.ascii_art import render_routing

        print()
        print(render_routing(result.routing))
    if args.show_schedule:
        from repro.viz.ascii_art import render_schedule

        print()
        print(render_schedule(result.schedule))
    if args.svg is not None:
        from repro.viz.svg import layout_to_svg

        args.svg.write_text(layout_to_svg(result.routing), encoding="utf-8")
        print(f"\nwrote {args.svg}")
    if args.profile:
        from repro.obs.report import render_report

        print()
        print(render_report(instrumentation))
    if args.trace is not None:
        print(f"\nwrote trace to {args.trace}")
    return 0


def main() -> None:  # pragma: no cover - thin wrapper
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":  # pragma: no cover
    main()
