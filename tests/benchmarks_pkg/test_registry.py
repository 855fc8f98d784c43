"""Tests for the benchmark registry."""

from dataclasses import FrozenInstanceError

import pytest

from repro.assay.io import assay_to_dict
from repro.benchmarks.registry import (
    SCALE_ORDER,
    TABLE1_ORDER,
    benchmark_names,
    get_benchmark,
    scale_benchmarks,
    table1_benchmarks,
)
from repro.benchmarks.synthetic import synthetic_assay
from repro.errors import AssayError


class TestRegistry:
    def test_table1_order_matches_paper(self):
        assert TABLE1_ORDER == (
            "PCR",
            "IVD",
            "CPA",
            "Synthetic1",
            "Synthetic2",
            "Synthetic3",
            "Synthetic4",
        )

    def test_benchmark_names_include_fig2a(self):
        names = benchmark_names()
        assert "Fig2a" in names
        assert set(TABLE1_ORDER) <= set(names)

    def test_get_benchmark_shares_one_immutable_case(self):
        a = get_benchmark("PCR")
        assert get_benchmark("PCR") is a
        # Sharing is safe only because nothing in a case can change.
        with pytest.raises(AttributeError):
            a.assay.name = "other"  # type: ignore[misc]
        with pytest.raises(FrozenInstanceError):
            a.allocation.mixers = 9  # type: ignore[misc]
        with pytest.raises(FrozenInstanceError):
            a.assay = None  # type: ignore[misc]

    def test_operation_counts_match_table1_column2(self):
        expected = {
            "PCR": 7,
            "IVD": 12,
            "CPA": 55,
            "Synthetic1": 20,
            "Synthetic2": 30,
            "Synthetic3": 40,
            "Synthetic4": 50,
        }
        for name, count in expected.items():
            assert get_benchmark(name).operation_count == count

    def test_table1_benchmarks_iterates_in_order(self):
        names = [case.name for case in table1_benchmarks()]
        assert names == list(TABLE1_ORDER)

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(AssayError, match="unknown benchmark"):
            get_benchmark("nope")

    def test_scale_tier_registered(self):
        assert SCALE_ORDER == ("Scale50", "Scale100", "Scale200")
        assert set(SCALE_ORDER) <= set(benchmark_names())
        # Table I stays untouched — the scale tier is additive.
        assert not set(SCALE_ORDER) & set(TABLE1_ORDER)
        for name, expected_ops in zip(SCALE_ORDER, (50, 100, 200)):
            assert get_benchmark(name).operation_count == expected_ops

    def test_scale_benchmarks_iterates_in_order(self):
        names = [case.name for case in scale_benchmarks()]
        assert names == list(SCALE_ORDER)

    def test_scale_benchmarks_deterministic(self):
        # The shared case equals a fresh build of the same spec.
        a = get_benchmark("Scale100")
        b = synthetic_assay("Scale100")
        assert a.assay is not b
        assert assay_to_dict(a.assay) == assay_to_dict(b)
