"""Experiment E1: regenerate Table I.

Columns mirror the paper: benchmark, #operations, allocated components,
execution time (Ours / BA / Imp%), resource utilisation (Ours / BA /
Imp%), total channel length (Ours / BA / Imp%), and CPU time (Ours /
BA).  Run with ``python -m repro.experiments.table1`` or the
``repro-table1`` console script.
"""

from __future__ import annotations

from repro.benchmarks.registry import get_benchmark
from repro.experiments.reporting import format_table, run_main
from repro.experiments.runner import BenchmarkComparison, run_all

__all__ = ["render_table1", "table1_rows", "main"]

_HEADERS = [
    "Benchmark",
    "Ops",
    "Components",
    "Exec ours (s)",
    "Exec BA (s)",
    "Imp (%)",
    "Util ours (%)",
    "Util BA (%)",
    "Imp (%)",
    "Len ours (mm)",
    "Len BA (mm)",
    "Imp (%)",
    "CPU ours (s)",
    "CPU BA (s)",
]

#: Extra columns shown when the runs carried the design-rule checker.
_CHECK_HEADERS = ["Viol ours", "Viol BA"]


def _checked(comparisons: list[BenchmarkComparison]) -> bool:
    return any(
        c.ours.check_report is not None or c.baseline.check_report is not None
        for c in comparisons
    )


def _violation_count(result) -> str:
    if result.check_report is None:
        return "-"
    return str(result.check_report.error_count)


def table1_rows(comparisons: list[BenchmarkComparison]) -> list[list[str]]:
    """One formatted row per benchmark, plus the averages row.

    When any run carried a checker audit (``--check report``/``strict``)
    two violation-count columns are appended, matching
    :data:`_CHECK_HEADERS`.
    """
    with_check = _checked(comparisons)
    rows = []
    imps = {"exec": [], "util": [], "len": []}
    for comparison in comparisons:
        ours = comparison.ours.metrics
        base = comparison.baseline.metrics
        case = get_benchmark(comparison.name)
        imps["exec"].append(comparison.execution_improvement)
        imps["util"].append(comparison.utilisation_improvement)
        imps["len"].append(comparison.length_improvement)
        rows.append(
            [
                comparison.name,
                str(case.operation_count),
                str(case.allocation),
                f"{ours.execution_time:.1f}",
                f"{base.execution_time:.1f}",
                f"{comparison.execution_improvement:.1f}",
                f"{ours.resource_utilisation * 100:.1f}",
                f"{base.resource_utilisation * 100:.1f}",
                f"{comparison.utilisation_improvement:.1f}",
                f"{ours.total_channel_length_mm:.0f}",
                f"{base.total_channel_length_mm:.0f}",
                f"{comparison.length_improvement:.1f}",
                f"{ours.cpu_time:.2f}",
                f"{base.cpu_time:.2f}",
            ]
            + (
                [
                    _violation_count(comparison.ours),
                    _violation_count(comparison.baseline),
                ]
                if with_check
                else []
            )
        )
    if comparisons:
        count = len(comparisons)
        rows.append(
            [
                "Average",
                "-",
                "-",
                "-",
                "-",
                f"{sum(imps['exec']) / count:.1f}",
                "-",
                "-",
                f"{sum(imps['util']) / count:.1f}",
                "-",
                "-",
                f"{sum(imps['len']) / count:.1f}",
                "-",
                "-",
            ]
            + (["-", "-"] if with_check else [])
        )
    return rows


def render_table1(comparisons: list[BenchmarkComparison]) -> str:
    """The full Table I as aligned text."""
    headers = _HEADERS + (_CHECK_HEADERS if _checked(comparisons) else [])
    return (
        "Table I: execution time, resource utilisation, total channel "
        "length, and CPU time\n" + format_table(headers, table1_rows(comparisons))
    )


def main() -> None:  # pragma: no cover - exercised via CLI
    print(render_table1(run_all()))


if __name__ == "__main__":  # pragma: no cover
    run_main(main)
