"""Registry of all evaluation benchmarks (the rows of Table I).

:func:`get_benchmark` returns a :class:`BenchmarkCase` by name;
:func:`table1_benchmarks` yields the seven cases in the paper's row
order.  Each case is built lazily, on first request, and then shared by
every caller: a case, its :class:`~repro.assay.graph.SequencingGraph`
and its :class:`~repro.components.allocation.Allocation` are all
immutable, so sharing them cannot leak state between callers.  Sharing
is what lets the per-graph memos (the digest prefix of
:mod:`repro.core.digest`, the feasibility verdict of
:mod:`repro.assay.validation`) serve every run of a benchmark, and
spares the service a rebuild of the assay on every job.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from repro.assay.graph import SequencingGraph
from repro.benchmarks import library as real
from repro.benchmarks.synthetic import (
    SCALE_SPECS,
    SYNTHETIC_SPECS,
    synthetic_allocation,
    synthetic_assay,
)
from repro.components.allocation import Allocation
from repro.errors import AssayError

__all__ = [
    "BenchmarkCase",
    "get_benchmark",
    "benchmark_names",
    "table1_benchmarks",
    "scale_benchmarks",
]


@dataclass(frozen=True)
class BenchmarkCase:
    """One benchmark: an assay plus its Table I component allocation."""

    name: str
    assay: SequencingGraph
    allocation: Allocation

    @property
    def operation_count(self) -> int:
        """Table I column 2."""
        return len(self.assay)


_REAL: dict[str, tuple[Callable[[], SequencingGraph], Callable[[], Allocation]]] = {
    "PCR": (real.pcr_assay, real.pcr_allocation),
    "IVD": (real.ivd_assay, real.ivd_allocation),
    "CPA": (real.cpa_assay, real.cpa_allocation),
    "Fig2a": (real.fig2a_assay, real.fig2a_allocation),
}

#: Table I row order.
TABLE1_ORDER = (
    "PCR",
    "IVD",
    "CPA",
    "Synthetic1",
    "Synthetic2",
    "Synthetic3",
    "Synthetic4",
)

#: The scale tier, in size order (see
#: :data:`repro.benchmarks.synthetic.SCALE_SPECS`).
SCALE_ORDER = ("Scale50", "Scale100", "Scale200")


def benchmark_names() -> list[str]:
    """All registered benchmark names.

    Table I rows, the Fig. 2(a) example, and the scale tier.
    """
    return list(TABLE1_ORDER) + ["Fig2a"] + list(SCALE_ORDER)


#: Benchmark name -> its shared case, built on first request.
_CASES: dict[str, BenchmarkCase] = {}


def get_benchmark(name: str) -> BenchmarkCase:
    """The named benchmark: one shared, immutable case per name.

    Raises :class:`AssayError` for unknown names.
    """
    case = _CASES.get(name)
    if case is not None:
        return case
    if name in _REAL:
        assay_factory, allocation_factory = _REAL[name]
        case = BenchmarkCase(name, assay_factory(), allocation_factory())
    elif name in SYNTHETIC_SPECS or name in SCALE_SPECS:
        case = BenchmarkCase(
            name, synthetic_assay(name), synthetic_allocation(name)
        )
    else:
        known = ", ".join(benchmark_names())
        raise AssayError(f"unknown benchmark {name!r} (known: {known})")
    return _CASES.setdefault(name, case)


def table1_benchmarks() -> Iterator[BenchmarkCase]:
    """The seven Table I benchmarks, in row order."""
    for name in TABLE1_ORDER:
        yield get_benchmark(name)


def scale_benchmarks() -> Iterator[BenchmarkCase]:
    """The scale-tier benchmarks, in size order."""
    for name in SCALE_ORDER:
        yield get_benchmark(name)
