"""Portfolio-racing measurement for ``python -m repro.experiments bench``.

* :mod:`repro.perf.harness` races the successive-halving portfolio
  against equal-budget multi-start (:func:`measure_portfolio`);
* :mod:`repro.perf.report` renders its table and the machine-readable
  ``BENCH_pr8.json`` artifact.

The steady end-to-end benchmark of the synthesis flow and its service
is ``perfbench/`` (see ``docs/PERFORMANCE.md``).
"""

from repro.perf.harness import measure_portfolio
from repro.perf.report import (
    portfolio_rows_to_payload,
    render_portfolio_table,
    write_bench_json,
)

__all__ = [
    "measure_portfolio",
    "portfolio_rows_to_payload",
    "render_portfolio_table",
    "write_bench_json",
]
