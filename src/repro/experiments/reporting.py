"""Plain-text table and bar-chart rendering for experiment reports.

The harness prints its results in the same structure the paper uses:
a comparison table (Table I) and per-benchmark grouped bars (Figs 8/9).
Everything is dependency-free text so reports drop straight into
EXPERIMENTS.md and terminal logs.
"""

from __future__ import annotations

import os
import sys
from typing import Callable, Sequence

__all__ = ["format_table", "format_grouped_bars", "run_main"]


def run_main(main: Callable[[], None]) -> None:
    """Run a harness's ``main``; a reader that closes stdout early
    (``python -m repro.experiments.runner | head``) ends it quietly,
    with exit status 1, instead of with a ``BrokenPipeError``
    traceback."""
    try:
        main()
        sys.stdout.flush()
    except BrokenPipeError:
        # Python flushes stdout again at exit: point it at the null
        # device so that flush cannot fail as well.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        raise SystemExit(1)


def format_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Render an aligned monospace table with a header separator."""
    columns = len(headers)
    for row in rows:
        if len(row) != columns:
            raise ValueError(
                f"row has {len(row)} cells, expected {columns}: {row!r}"
            )
    widths = [
        max(len(str(headers[c])), *(len(str(row[c])) for row in rows))
        if rows
        else len(str(headers[c]))
        for c in range(columns)
    ]
    def fmt(cells: Sequence[str]) -> str:
        return " | ".join(str(cell).rjust(widths[i]) for i, cell in enumerate(cells))

    separator = "-+-".join("-" * width for width in widths)
    return "\n".join([fmt(headers), separator] + [fmt(row) for row in rows])


def format_grouped_bars(
    title: str,
    labels: Sequence[str],
    series: dict[str, Sequence[float]],
    unit: str = "s",
    width: int = 50,
) -> str:
    """Render grouped horizontal bars (one group per label).

    Mirrors the paper's Fig. 8 / Fig. 9 bar charts in plain text::

        == title ==
        PCR
          Ours |#####            12.0 s
          BA   |########         20.5 s
    """
    for name, values in series.items():
        if len(values) != len(labels):
            raise ValueError(
                f"series {name!r} has {len(values)} values for "
                f"{len(labels)} labels"
            )
    peak = max(
        (value for values in series.values() for value in values), default=0.0
    )
    scale = (width / peak) if peak > 0 else 0.0
    name_width = max(len(name) for name in series) if series else 0
    lines = [f"== {title} =="]
    for index, label in enumerate(labels):
        lines.append(str(label))
        for name, values in series.items():
            value = values[index]
            bar = "#" * max(0, round(value * scale))
            lines.append(
                f"  {name.ljust(name_width)} |{bar.ljust(width)} "
                f"{value:8.1f} {unit}"
            )
    return "\n".join(lines)
