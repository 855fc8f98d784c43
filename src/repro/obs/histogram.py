"""Fixed log-bucket latency histograms (the ``histogram`` metric kind).

Counters answer *how many*, gauges answer *what now* — histograms
answer *how are they distributed*.  A :class:`Histogram` accumulates
observations into one fixed geometric bucket ladder, :data:`BOUNDS`,
so that

* recording is O(log buckets) with zero allocation (one ``bisect`` into
  the bound table),
* any two histograms merge by element-wise addition — a commutative,
  associative operation, so merged histograms are independent of merge
  order — and
* p50/p90/p99 come out with bounded relative error (one bucket's
  :data:`GROWTH` factor) while min/max/sum/count stay exact.

The ladder spans 1 µs to ~13 minutes in sqrt(2) steps — wide enough
for a single A* search and for a whole synthesis phase alike.

Instances are picklable: they travel inside
:class:`~repro.obs.instrument.InstrumentationSnapshot` across the
process pool.
"""

from __future__ import annotations

from bisect import bisect_left

__all__ = ["BOUNDS", "GROWTH", "Histogram"]

#: Geometric growth factor between consecutive bucket bounds.
GROWTH = 2 ** 0.5
#: Upper bound of every bounded bucket: 60 buckets from 1 µs up.  Values
#: beyond the last bound land in one extra overflow bucket (quantiles
#: then clamp to the observed maximum, so overflow never fabricates
#: values).
BOUNDS: tuple[float, ...] = tuple(1e-6 * GROWTH ** i for i in range(60))


class Histogram:
    """Log-bucketed value distribution with exact count/sum/min/max."""

    __slots__ = ("counts", "count", "total", "vmin", "vmax")

    def __init__(self) -> None:
        self.counts = [0] * (len(BOUNDS) + 1)
        self.count = 0
        self.total = 0.0
        self.vmin: float | None = None
        self.vmax: float | None = None

    # -- pickling (``__slots__`` classes need explicit state) ----------
    def __getstate__(self) -> dict:
        return {slot: getattr(self, slot) for slot in self.__slots__}

    def __setstate__(self, state: dict) -> None:
        for slot, value in state.items():
            setattr(self, slot, value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Histogram(count={self.count}, p50={self.p50!r}, "
            f"p99={self.p99!r}, max={self.vmax!r})"
        )

    # ------------------------------------------------------------------
    # Recording / merging
    # ------------------------------------------------------------------
    def record(self, value: float) -> None:
        """Add one observation (negative values clamp into bucket 0)."""
        self.counts[bisect_left(BOUNDS, value)] += 1
        self.count += 1
        self.total += value
        if self.vmin is None or value < self.vmin:
            self.vmin = value
        if self.vmax is None or value > self.vmax:
            self.vmax = value

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold *other* into this histogram (returns ``self``).

        Merging is element-wise bucket addition, hence commutative and
        associative: any merge order yields the same histogram.
        """
        for i, n in enumerate(other.counts):
            self.counts[i] += n
        self.count += other.count
        self.total += other.total
        if other.vmin is not None:
            self.vmin = other.vmin if self.vmin is None else min(self.vmin, other.vmin)
        if other.vmax is not None:
            self.vmax = other.vmax if self.vmax is None else max(self.vmax, other.vmax)
        return self

    def copy(self) -> "Histogram":
        """An independent deep copy (fresh bucket counts)."""
        twin = Histogram()
        twin.merge(self)
        return twin

    # ------------------------------------------------------------------
    # Quantiles
    # ------------------------------------------------------------------
    def quantile(self, q: float) -> float | None:
        """Estimated value at quantile *q* (0..1); ``None`` when empty.

        Linear interpolation inside the hit bucket, clamped to the
        exact observed min/max so estimates never leave the data range.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0 or self.vmin is None or self.vmax is None:
            return None
        target = q * self.count
        seen = 0.0
        for i, n in enumerate(self.counts):
            if n == 0:
                continue
            if seen + n >= target:
                upper = BOUNDS[i] if i < len(BOUNDS) else self.vmax
                lower = BOUNDS[i - 1] if i > 0 else 0.0
                fraction = (target - seen) / n
                estimate = lower + (upper - lower) * fraction
                return min(max(estimate, self.vmin), self.vmax)
            seen += n
        return self.vmax

    @property
    def p50(self) -> float | None:
        return self.quantile(0.50)

    @property
    def p90(self) -> float | None:
        return self.quantile(0.90)

    @property
    def p99(self) -> float | None:
        return self.quantile(0.99)

    @property
    def mean(self) -> float | None:
        return self.total / self.count if self.count else None

    def summary(self, digits: int = 6) -> dict:
        """The flat percentile record ledgers and BENCH artifacts carry."""
        def r(value: float | None) -> float | None:
            return None if value is None else round(value, digits)

        return {
            "count": self.count,
            "sum": r(self.total),
            "mean": r(self.mean),
            "min": r(self.vmin),
            "p50": r(self.p50),
            "p90": r(self.p90),
            "p99": r(self.p99),
            "max": r(self.vmax),
        }

