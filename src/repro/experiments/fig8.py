"""Experiment E2: regenerate Fig. 8 — total cache time in flow channels.

The figure compares, per benchmark, the sum of all fluid cache times in
distributed channel storage for the proposed algorithm and BA.  Run
with ``python -m repro.experiments.fig8`` or ``repro-fig8``.
"""

from __future__ import annotations

from repro.experiments.reporting import format_grouped_bars, run_main
from repro.experiments.runner import BenchmarkComparison, run_all

__all__ = ["fig8_series", "render_fig8", "main"]


def fig8_series(
    comparisons: list[BenchmarkComparison],
) -> tuple[list[str], dict[str, list[float]]]:
    """Labels and the two data series of the figure."""
    labels = [c.name for c in comparisons]
    series = {
        "Ours": [c.ours.metrics.total_cache_time for c in comparisons],
        "BA": [c.baseline.metrics.total_cache_time for c in comparisons],
    }
    return labels, series


def render_fig8(comparisons: list[BenchmarkComparison]) -> str:
    """The figure as a grouped text bar chart."""
    labels, series = fig8_series(comparisons)
    return format_grouped_bars(
        "Fig. 8: total cache time in flow channels", labels, series, unit="s"
    )


def main() -> None:  # pragma: no cover - exercised via CLI
    print(render_fig8(run_all()))


if __name__ == "__main__":  # pragma: no cover
    run_main(main)
