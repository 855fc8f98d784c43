"""Regression guard: NullSink instrumentation costs <5% on PCR.

The instrumentation layer is wired permanently into the pipeline, so the
default (NullSink) path must stay essentially free.  This benchmark runs
the proposed flow both ways — through the instrumented pipeline driver
and as a hand-rolled uninstrumented stage loop — and compares best-of-N
wall-clock times.  A small absolute epsilon absorbs scheduler jitter on
runs this short.
"""

import time

from repro.core.problem import SynthesisParameters, SynthesisProblem
from repro.core.synthesizer import synthesize_problem
from repro.place.annealing import anneal_placement
from repro.place.energy import build_connection_priorities
from repro.route.router import route_tasks
from repro.schedule.list_scheduler import schedule_assay
from repro.schedule.validate import validate_schedule
from repro.core.metrics import compute_metrics

REPS = 5
#: Allowed overhead: 5% relative plus 2 ms absolute jitter allowance.
RELATIVE_BUDGET = 0.05
ABSOLUTE_SLACK = 0.002


def _benchmark_problem(pcr_case) -> SynthesisProblem:
    # A mid-sized annealing schedule: long enough to time stably,
    # short enough to repeat REPS times in a test.
    params = SynthesisParameters(
        initial_temperature=1000.0,
        min_temperature=1.0,
        cooling_rate=0.9,
        iterations_per_temperature=50,
        seed=1,
    )
    return SynthesisProblem(
        assay=pcr_case.assay, allocation=pcr_case.allocation, parameters=params
    )


def _uninstrumented_once(problem: SynthesisProblem) -> float:
    """The pre-instrumentation pipeline, timed with a bare perf_counter."""
    params = problem.parameters
    started = time.perf_counter()
    schedule = schedule_assay(
        problem.assay, problem.allocation, params.transport_time
    )
    validate_schedule(schedule)
    priorities = build_connection_priorities(
        schedule, beta=params.beta, gamma=params.gamma
    )
    annealed = anneal_placement(
        problem.resolved_grid(),
        problem.footprints(),
        priorities,
        parameters=params.annealing(),
        seed=params.seed,
    )
    routing = route_tasks(
        annealed.placement,
        schedule.transport_tasks(),
        initial_weight=params.initial_cell_weight,
    )
    compute_metrics(schedule, routing)
    return time.perf_counter() - started


def _instrumented_once(problem: SynthesisProblem) -> float:
    started = time.perf_counter()
    synthesize_problem(problem)  # default NullSink instrumentation
    return time.perf_counter() - started


class TestNullSinkOverhead:
    def test_overhead_below_budget(self, pcr_case):
        problem = _benchmark_problem(pcr_case)
        # Warm up caches/allocators once per variant, then interleave
        # the variants pair-wise: machine-load drift during the test
        # then hits both sides equally instead of biasing whichever
        # variant happened to run during the slow window.
        _uninstrumented_once(problem)
        _instrumented_once(problem)
        bare_times, instrumented_times = [], []
        for _ in range(REPS):
            bare_times.append(_uninstrumented_once(problem))
            instrumented_times.append(_instrumented_once(problem))
        bare = min(bare_times)
        instrumented = min(instrumented_times)
        budget = bare * (1.0 + RELATIVE_BUDGET) + ABSOLUTE_SLACK
        assert instrumented <= budget, (
            f"NullSink instrumentation overhead too high: "
            f"{instrumented:.4f}s vs {bare:.4f}s bare "
            f"(budget {budget:.4f}s)"
        )


class TestLedgerOffOverhead:
    """The run ledger must cost nothing when off: the Python API never
    writes (or even imports) it, so the NullSink overhead guard above is
    also the ledger-off guard — ``synthesize_problem`` is exactly the
    NullSink + ledger-off configuration it times."""

    def test_python_api_never_touches_the_ledger(self, pcr_case, tmp_path,
                                                 monkeypatch):
        monkeypatch.chdir(tmp_path)
        synthesize_problem(_benchmark_problem(pcr_case))
        assert not (tmp_path / ".repro").exists()

    def test_pipeline_run_skips_ledger_import(self):
        import subprocess
        import sys

        # A fresh interpreter proves the lazy import: with the ledger
        # off (the API default) the module must never even load — its
        # hashing/IO stays entirely off the hot path.
        script = (
            "import sys\n"
            "from repro.benchmarks.registry import get_benchmark\n"
            "from repro.core.problem import "
            "SynthesisParameters, SynthesisProblem\n"
            "from repro.core.synthesizer import synthesize_problem\n"
            "case = get_benchmark('PCR')\n"
            "params = SynthesisParameters(initial_temperature=10.0,\n"
            "    min_temperature=1.0, cooling_rate=0.5,\n"
            "    iterations_per_temperature=5, seed=1)\n"
            "problem = SynthesisProblem(assay=case.assay,\n"
            "    allocation=case.allocation, parameters=params)\n"
            "synthesize_problem(problem)\n"
            "assert 'repro.obs.ledger' not in sys.modules, 'ledger imported'\n"
        )
        completed = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
        )
        assert completed.returncode == 0, completed.stderr


class TestCheckOffOverhead:
    """``check="off"`` must stay free: no checker phase, no checker work,
    and not even an import of the audit-only checker modules."""

    def test_check_off_runs_no_checker_phase(self, pcr_case):
        problem = _benchmark_problem(pcr_case)
        result = synthesize_problem(problem)
        assert result.check_report is None
        assert "check" not in result.phase_times

    def test_check_off_skips_checker_imports(self):
        import subprocess
        import sys

        # A fresh interpreter proves the lazy import: an off-mode run
        # must never pull in the placement, routing or metrics checkers
        # (the report vocabulary is allowed - the parameters validate
        # against it - and so are the SCH-* rules, which are the
        # schedule check every flow runs inline).
        script = (
            "import sys\n"
            "from repro.benchmarks.registry import get_benchmark\n"
            "from repro.core.problem import "
            "SynthesisParameters, SynthesisProblem\n"
            "from repro.core.synthesizer import synthesize_problem\n"
            "case = get_benchmark('PCR')\n"
            "params = SynthesisParameters(initial_temperature=10.0,\n"
            "    min_temperature=1.0, cooling_rate=0.5,\n"
            "    iterations_per_temperature=5, seed=1)\n"
            "problem = SynthesisProblem(assay=case.assay,\n"
            "    allocation=case.allocation, parameters=params)\n"
            "synthesize_problem(problem)\n"
            "loaded = [m for m in sys.modules if m.startswith('repro.check.')\n"
            "          and m not in ('repro.check.report',\n"
            "                        'repro.check.schedule')]\n"
            "assert not loaded, f'checker modules imported: {loaded}'\n"
        )
        completed = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
        )
        assert completed.returncode == 0, completed.stderr
