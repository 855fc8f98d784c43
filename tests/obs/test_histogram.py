"""Unit tests for the log-bucket latency histogram."""

import pickle
import random

import pytest

from repro.obs.histogram import BOUNDS, GROWTH, Histogram


class TestRecording:
    def test_exact_aggregates(self):
        h = Histogram()
        for value in (0.001, 0.002, 0.004):
            h.record(value)
        assert h.count == 3
        assert h.total == pytest.approx(0.007)
        assert h.vmin == 0.001
        assert h.vmax == 0.004
        assert h.mean == pytest.approx(0.007 / 3)

    def test_empty_histogram_has_no_quantiles(self):
        h = Histogram()
        assert h.count == 0
        assert h.p50 is None and h.p99 is None and h.mean is None
        summary = h.summary()
        assert summary["count"] == 0
        assert summary["p50"] is None

    def test_negative_and_overflow_values_stay_in_range(self):
        h = Histogram()
        h.record(-1.0)  # clamps into bucket 0
        h.record(1e9)   # overflow bucket
        assert h.count == 2
        assert h.vmin == -1.0
        assert h.vmax == 1e9
        # Quantiles clamp to observed min/max, never fabricate values.
        assert h.quantile(0.0) >= h.vmin
        assert h.quantile(1.0) <= h.vmax

    def test_quantile_relative_error_bounded_by_growth(self):
        h = Histogram()
        rng = random.Random(7)
        values = [rng.uniform(1e-5, 1e-2) for _ in range(5000)]
        for value in values:
            h.record(value)
        values.sort()
        for q in (0.5, 0.9, 0.99):
            exact = values[int(q * len(values)) - 1]
            estimate = h.quantile(q)
            assert estimate == pytest.approx(exact, rel=GROWTH - 1 + 0.05)

    def test_quantile_argument_validated(self):
        with pytest.raises(ValueError):
            Histogram().quantile(1.5)

    def test_summary_keys_are_the_documented_set(self):
        h = Histogram()
        h.record(0.001)
        assert set(h.summary()) == {
            "count", "sum", "mean", "min", "p50", "p90", "p99", "max"
        }


class TestMerge:
    def test_merge_is_commutative(self):
        rng = random.Random(3)
        a, b = Histogram(), Histogram()
        for _ in range(200):
            a.record(rng.uniform(1e-6, 1e-3))
            b.record(rng.uniform(1e-4, 1e-1))
        ab = a.copy().merge(b)
        ba = b.copy().merge(a)
        assert ab.counts == ba.counts
        assert ab.count == ba.count == 400
        assert ab.total == pytest.approx(ba.total)
        assert ab.summary() == ba.summary()

    def test_merge_matches_single_stream(self):
        rng = random.Random(11)
        values = [rng.uniform(1e-6, 1.0) for _ in range(300)]
        single = Histogram()
        parts = [Histogram() for _ in range(3)]
        for i, value in enumerate(values):
            single.record(value)
            parts[i % 3].record(value)
        merged = parts[0].copy().merge(parts[1]).merge(parts[2])
        assert merged.counts == single.counts
        assert merged.summary() == single.summary()

    def test_merge_does_not_mutate_source(self):
        a, b = Histogram(), Histogram()
        a.record(0.001)
        b.record(0.002)
        a.copy().merge(b)
        assert b.count == 1 and a.count == 1

    def test_default_ladder_shared(self):
        # One fixed ladder: 1 µs up in sqrt(2) steps, 60 bounded
        # buckets plus the overflow bucket.
        assert len(BOUNDS) == 60
        assert BOUNDS[0] == 1e-6
        assert BOUNDS[-1] == pytest.approx(1e-6 * GROWTH ** 59)
        assert len(Histogram().counts) == len(BOUNDS) + 1


class TestPickle:
    def test_round_trip(self):
        h = Histogram()
        for value in (0.0001, 0.002, 0.03):
            h.record(value)
        clone = pickle.loads(pickle.dumps(h))
        assert clone.counts == h.counts
        assert clone.count == h.count
        assert clone.summary() == h.summary()
        # The clone keeps recording independently.
        clone.record(0.5)
        assert clone.count == h.count + 1
