"""Experiment E3: regenerate Fig. 9 — total wash time of flow channels.

The figure compares, per benchmark, the total wash time charged on flow
channels (residue flushes between different fluids sharing a channel,
plus final cleanup) for the proposed algorithm and BA.  Run with
``python -m repro.experiments.fig9`` or ``repro-fig9``.
"""

from __future__ import annotations

from repro.experiments.reporting import format_grouped_bars, run_main
from repro.experiments.runner import BenchmarkComparison, run_all

__all__ = ["fig9_series", "render_fig9", "main"]


def fig9_series(
    comparisons: list[BenchmarkComparison],
) -> tuple[list[str], dict[str, list[float]]]:
    """Labels and the two data series of the figure."""
    labels = [c.name for c in comparisons]
    series = {
        "Ours": [c.ours.metrics.total_channel_wash_time for c in comparisons],
        "BA": [c.baseline.metrics.total_channel_wash_time for c in comparisons],
    }
    return labels, series


def render_fig9(comparisons: list[BenchmarkComparison]) -> str:
    """The figure as a grouped text bar chart."""
    labels, series = fig9_series(comparisons)
    return format_grouped_bars(
        "Fig. 9: total wash time of flow channels", labels, series, unit="s"
    )


def main() -> None:  # pragma: no cover - exercised via CLI
    print(render_fig9(run_all()))


if __name__ == "__main__":  # pragma: no cover
    run_main(main)
