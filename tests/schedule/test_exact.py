"""Tests for the exhaustive optimal scheduler (list-scheduling oracle)."""

import pytest

from repro.assay.builder import AssayBuilder
from repro.components.allocation import Allocation
from repro.errors import SchedulingError
from tests.oracles.exact import schedule_assay_optimal
from repro.schedule.list_scheduler import schedule_assay
from repro.schedule.validate import validate_schedule


def tiny_chain():
    return (
        AssayBuilder("t")
        .mix("a", duration=3, wash_time=1.0)
        .mix("b", duration=2, after=["a"], wash_time=1.0)
        .build()
    )


def tiny_diamond():
    return (
        AssayBuilder("t")
        .mix("s", duration=2, wash_time=1.0)
        .mix("l", duration=3, after=["s"], wash_time=2.0)
        .mix("r", duration=4, after=["s"], wash_time=1.0)
        .mix("j", duration=2, after=["l", "r"], wash_time=1.0)
        .build()
    )


class TestExactScheduler:
    def test_finds_valid_schedule(self):
        result = schedule_assay_optimal(tiny_chain(), Allocation(mixers=2))
        validate_schedule(result.schedule)
        assert result.nodes_explored > 0

    def test_chain_optimum_is_in_place(self):
        # In-place reuse makes the chain finish back-to-back: 3 + 2.
        result = schedule_assay_optimal(tiny_chain(), Allocation(mixers=2))
        assert result.makespan == pytest.approx(5.0)

    def test_size_limit_enforced(self):
        builder = AssayBuilder("big")
        for index in range(9):
            builder.mix(f"m{index}", duration=1)
        with pytest.raises(SchedulingError, match="limited"):
            schedule_assay_optimal(builder.build(), Allocation(mixers=2))

    @pytest.mark.parametrize("mixers", [1, 2, 3])
    def test_list_scheduler_never_beats_optimum_diamond(self, mixers):
        assay = tiny_diamond()
        allocation = Allocation(mixers=mixers)
        optimal = schedule_assay_optimal(assay, allocation)
        heuristic = schedule_assay(assay, allocation)
        assert heuristic.makespan >= optimal.makespan - 1e-9

    def test_list_scheduler_matches_optimum_on_chain(self):
        assay = tiny_chain()
        allocation = Allocation(mixers=2)
        optimal = schedule_assay_optimal(assay, allocation)
        heuristic = schedule_assay(assay, allocation)
        assert heuristic.makespan == pytest.approx(optimal.makespan)

    def test_optimal_schedule_is_valid_diamond(self):
        result = schedule_assay_optimal(tiny_diamond(), Allocation(mixers=2))
        validate_schedule(result.schedule)
