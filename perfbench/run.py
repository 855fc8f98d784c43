"""Run one workload of the repository's benchmark.

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 20 --trace 0

Workloads: ``table1`` drives the synthesis library (``flow.py``),
``service`` drives ``python -m repro serve`` (``service.py``).
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a separate traced run.  The plan of work is a
function of ``--seed`` and ``--seconds`` only.

The line before the last is the plan fingerprint (workload seed, plan
digest, quality sums), identical for every run of the same seed.  The
last line is the result::

    {"correct": true, "attempted": 63, "failed": 0, "metrics": {...}}

The program is imported from ``src/`` of the checkout this directory
sits in; without it the benchmark exits with status 2 and prints no
result.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

from common import SRC, end_descendants, report_failure

WORKLOADS = ("table1", "service")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="sizes the plan: about this long measured")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smallest plan of the workload (self-test)")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # A terminated run still stops its server and pool on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    try:
        if args.workload == "service":
            import service

            outcome = service.run(args.seed, args.seconds, bool(args.trace),
                                  args.smoke)
        else:
            import flow

            outcome = flow.run(args.seed, args.seconds, bool(args.trace),
                               args.smoke)
    finally:
        # No process this run started may outlive it.
        for pid in end_descendants():
            report_failure("run", f"process {pid} outlived the run")
    attempted, failed, metrics, plan, qualities = outcome
    print(
        f"plan workload={args.workload} seed={args.seed} "
        f"items={len(qualities)} digest={plan} "
        f"makespan_sum_s={sum(q['execution_time_s'] for q in qualities)!r} "
        f"channel_mm_sum="
        f"{sum(q['total_channel_length_mm'] for q in qualities)!r}"
    )
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
