"""Unit tests for component allocations."""

import pytest

from repro.assay.graph import OperationType
from repro.components.allocation import Allocation
from repro.errors import AllocationError


class TestAllocation:
    def test_counts_by_type(self):
        allocation = Allocation(mixers=3, heaters=2, filters=1, detectors=4)
        assert allocation.count(OperationType.MIX) == 3
        assert allocation.count(OperationType.HEAT) == 2
        assert allocation.count(OperationType.FILTER) == 1
        assert allocation.count(OperationType.DETECT) == 4

    def test_total(self):
        assert Allocation(3, 2, 1, 4).total == 10

    def test_tuple_round_trip(self):
        allocation = Allocation.from_tuple((8, 0, 0, 2))
        assert allocation.as_tuple() == (8, 0, 0, 2)

    def test_from_tuple_wrong_arity(self):
        with pytest.raises(AllocationError):
            Allocation.from_tuple((1, 2, 3))  # type: ignore[arg-type]

    def test_negative_count_rejected(self):
        with pytest.raises(AllocationError):
            Allocation(mixers=-1)

    @pytest.mark.parametrize("count", [3.0, True, "3"])
    def test_non_integer_count_rejected(self, count):
        # Allocation(3.0) == Allocation(3), but their digests differ, so
        # a per-allocation digest memo must never see the pair.
        with pytest.raises(AllocationError, match="must be an integer"):
            Allocation(mixers=count)

    def test_empty_allocation_rejected(self):
        with pytest.raises(AllocationError):
            Allocation()

    def test_component_ids_table1_order(self):
        allocation = Allocation(mixers=2, heaters=1, detectors=1)
        assert allocation.component_ids() == [
            "Mixer1",
            "Mixer2",
            "Heater1",
            "Detector1",
        ]

    def test_iter_components_types(self):
        pairs = dict(Allocation(mixers=1, filters=2).iter_components())
        assert pairs == {
            "Mixer1": OperationType.MIX,
            "Filter1": OperationType.FILTER,
            "Filter2": OperationType.FILTER,
        }

    def test_str_matches_table1_format(self):
        assert str(Allocation(8, 0, 0, 2)) == "(8,0,0,2)"

    def test_frozen(self):
        allocation = Allocation(mixers=1)
        with pytest.raises(AttributeError):
            allocation.mixers = 5  # type: ignore[misc]
