"""Shared experiment runner: one benchmark, both algorithms.

:func:`run_benchmark` synthesises a benchmark with the proposed flow and
the baseline under identical parameters and returns a
:class:`BenchmarkComparison` holding both results; :func:`run_all` does
so for every Table I row, optionally fanning the per-benchmark
syntheses out over a process pool (``jobs``).  Each pooled child runs
with its own :class:`~repro.obs.Instrumentation` and ships its phase
timers and counters back to the parent, which merges them in benchmark
order — so the ``--profile`` report carries the same span/counter keys
for any job count.  ``python -m repro.experiments.runner`` prints every
table and figure of the evaluation section in one go; add ``--jobs N``
to parallelise, ``--profile`` for the cross-benchmark phase/counter
breakdown, or ``--trace PATH.jsonl`` for the full event stream (serial
runs only stream per-move events; pooled children contribute
aggregates).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from repro.benchmarks.registry import TABLE1_ORDER, get_benchmark
from repro.check.report import CHECK_MODES
from repro.core.baseline import synthesize_problem_baseline
from repro.core.metrics import improvement
from repro.core.problem import SynthesisParameters, SynthesisProblem
from repro.core.solution import SynthesisResult
from repro.core.synthesizer import synthesize_problem
from repro.errors import CheckError
from repro.obs.instrument import Instrumentation, InstrumentationSnapshot
from repro.parallel.pool import PoolSession, resolve_jobs

__all__ = ["BenchmarkComparison", "run_benchmark", "run_all"]


@dataclass(frozen=True)
class BenchmarkComparison:
    """Results of both algorithms on one benchmark."""

    name: str
    ours: SynthesisResult
    baseline: SynthesisResult

    @property
    def execution_improvement(self) -> float:
        """Table I ``Imp (%)`` for execution time."""
        return improvement(
            self.ours.metrics.execution_time,
            self.baseline.metrics.execution_time,
        )

    @property
    def utilisation_improvement(self) -> float:
        """Table I ``Imp (%)`` for resource utilisation (increase)."""
        ours = self.ours.metrics.resource_utilisation
        base = self.baseline.metrics.resource_utilisation
        if base == 0:
            return 0.0
        return (ours - base) / base * 100.0

    @property
    def length_improvement(self) -> float:
        """Table I ``Imp (%)`` for total channel length."""
        return improvement(
            self.ours.metrics.total_channel_length_mm,
            self.baseline.metrics.total_channel_length_mm,
        )


def run_benchmark(
    name: str,
    parameters: SynthesisParameters | None = None,
    instrumentation: Instrumentation | None = None,
) -> BenchmarkComparison:
    """Synthesise *name* with both algorithms under one parameter set.

    With *instrumentation* the two runs are wrapped in
    ``bench.<name> > ours / baseline`` spans, so a shared trace (or the
    ``--profile`` report) attributes every phase and counter to its
    benchmark and algorithm.
    """
    params = parameters or SynthesisParameters(seed=1)
    case = get_benchmark(name)
    problem = SynthesisProblem(
        assay=case.assay, allocation=case.allocation, parameters=params
    )
    instr = instrumentation if instrumentation is not None else Instrumentation()
    with instr.span(f"bench.{name}"):
        with instr.span("ours"):
            ours = synthesize_problem(problem, instrumentation=instr)
        with instr.span("baseline"):
            baseline = synthesize_problem_baseline(problem, instrumentation=instr)
    return BenchmarkComparison(name=name, ours=ours, baseline=baseline)


def _benchmark_worker(
    payload: tuple[str, SynthesisParameters | None],
) -> tuple[BenchmarkComparison, "InstrumentationSnapshot"]:
    """Pool entry point: one benchmark with private instrumentation."""
    name, parameters = payload
    instr = Instrumentation()
    comparison = run_benchmark(name, parameters, instrumentation=instr)
    return comparison, instr.snapshot()


def run_all(
    names: Iterable[str] = TABLE1_ORDER,
    parameters: SynthesisParameters | None = None,
    instrumentation: Instrumentation | None = None,
    jobs: int = 1,
) -> list[BenchmarkComparison]:
    """Run every requested benchmark (Table I rows by default).

    ``jobs > 1`` dispatches the per-benchmark syntheses to a process
    pool (:mod:`repro.parallel`).  Results and merged telemetry are
    identical for every job count: comparisons come back in benchmark
    order and each child's instrumentation snapshot is absorbed into
    *instrumentation* in that same order.
    """
    names = list(names)
    if jobs == 1:
        return [
            run_benchmark(name, parameters, instrumentation=instrumentation)
            for name in names
        ]
    with PoolSession(jobs=min(resolve_jobs(jobs), len(names))) as session:
        outcomes = session.run(
            _benchmark_worker, [(name, parameters) for name in names]
        )
    comparisons = []
    for comparison, snapshot in outcomes:
        if instrumentation is not None:
            instrumentation.absorb(snapshot)
        comparisons.append(comparison)
    return comparisons


def main(argv: list[str] | None = None) -> None:  # pragma: no cover - CLI
    """Print Table I, Fig. 8, and Fig. 9 from one set of runs."""
    from repro.experiments.fig8 import render_fig8
    from repro.experiments.fig9 import render_fig9
    from repro.experiments.table1 import render_table1
    from repro.obs.report import render_report
    from repro.obs.sinks import JsonlSink, NullSink

    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Run every Table I benchmark with both algorithms.",
    )
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the per-benchmark "
                             "fan-out; results are identical for every "
                             "value (default: 1, 0 = one per CPU)")
    parser.add_argument("--profile", action="store_true",
                        help="print the phase/counter breakdown after the tables")
    parser.add_argument("--trace", type=Path, default=None, metavar="PATH.jsonl",
                        help="stream instrumentation events to this JSONL file")
    parser.add_argument("--check",
                        choices=CHECK_MODES,
                        default="report",
                        help="audit every result with the independent "
                             "design-rule checker; 'report' adds violation "
                             "counts to Table I, 'strict' fails the run on "
                             "any violation (default: report)")
    args = parser.parse_args(argv)

    try:
        sink = JsonlSink(args.trace) if args.trace is not None else NullSink()
    except OSError as error:
        parser.exit(3, f"error: cannot open trace file: {error}\n")
    instrumentation = Instrumentation(sink)
    parameters = SynthesisParameters(seed=1, check=args.check)
    try:
        comparisons = run_all(
            parameters=parameters,
            instrumentation=instrumentation,
            jobs=args.jobs,
        )
    except CheckError as error:
        print(f"error: {error}", file=sys.stderr)
        raise SystemExit(3)
    finally:
        sink.close()
    print(render_table1(comparisons))
    print()
    print(render_fig8(comparisons))
    print()
    print(render_fig9(comparisons))
    if args.profile:
        print()
        print(render_report(instrumentation))
    if args.trace is not None:
        print(f"\nwrote trace to {args.trace}")


if __name__ == "__main__":  # pragma: no cover
    from repro.experiments.reporting import run_main

    run_main(main)
