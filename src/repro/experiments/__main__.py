"""``python -m repro.experiments`` — evaluation and benchmarking CLIs.

Without a subcommand (or with the explicit ``run_all`` alias) this runs
the full paper evaluation (Table I, Fig. 8, Fig. 9); add ``--jobs N``
to fan the benchmarks out over a process pool and ``--check
report|strict`` to audit every result with the independent design-rule
checker (:mod:`repro.check`).  ``python -m repro.experiments bench``
runs the portfolio-racing or service-tier benchmark instead (see
:mod:`repro.experiments.bench`).
"""

import sys


def main() -> None:
    argv = sys.argv[1:]
    if argv and argv[0] == "bench":
        from repro.experiments.bench import main as bench_main

        bench_main(argv[1:])
    else:
        if argv and argv[0] == "run_all":
            argv = argv[1:]
        from repro.experiments.runner import main as runner_main

        runner_main(argv)


if __name__ == "__main__":
    main()
