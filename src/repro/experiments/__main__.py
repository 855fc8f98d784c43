"""``python -m repro.experiments`` — the paper's evaluation CLI.

Without arguments (or with the explicit ``run_all`` alias) this runs
the full paper evaluation (Table I, Fig. 8, Fig. 9); add ``--jobs N``
to fan the benchmarks out over a process pool and ``--check
report|strict`` to audit every result with the independent design-rule
checker (:mod:`repro.check`).  The repository's benchmark is
``perfbench/`` (see ``perfbench/README.md``).
"""

import sys


def main() -> None:
    argv = sys.argv[1:]
    if argv and argv[0] == "run_all":
        argv = argv[1:]
    from repro.experiments.runner import main as runner_main

    runner_main(argv)


if __name__ == "__main__":
    from repro.experiments.reporting import run_main

    run_main(main)
