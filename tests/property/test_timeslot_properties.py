"""Property-based tests for time-slot sets."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.route.timeslots import TimeSlot
from tests.oracles.routing_grid import TimeSlotSet

slots_strategy = st.builds(
    lambda start, duration: TimeSlot(start, start + duration),
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    st.floats(min_value=0.01, max_value=20.0, allow_nan=False),
)


@settings(max_examples=100, deadline=None)
@given(st.lists(slots_strategy, max_size=20))
def test_set_accepts_exactly_nonoverlapping_prefix(slots):
    """Adding slots one by one either succeeds or raises; whatever was
    accepted stays pairwise disjoint."""
    slot_set = TimeSlotSet()
    for slot in slots:
        try:
            slot_set.add(slot)
        except ValidationError:
            pass
    stored = slot_set.slots()
    for i, first in enumerate(stored):
        for second in stored[i + 1:]:
            assert not first.overlaps(second)


@settings(max_examples=100, deadline=None)
@given(st.lists(slots_strategy, max_size=15), slots_strategy)
def test_conflicts_with_matches_bruteforce(slots, probe):
    slot_set = TimeSlotSet()
    accepted = []
    for slot in slots:
        try:
            slot_set.add(slot)
            accepted.append(slot)
        except ValidationError:
            pass
    expected = any(slot.overlaps(probe) for slot in accepted)
    assert slot_set.conflicts_with(probe) == expected


@settings(max_examples=100, deadline=None)
@given(slots_strategy, slots_strategy)
def test_overlap_symmetry(a, b):
    assert a.overlaps(b) == b.overlaps(a)


@settings(max_examples=100, deadline=None)
@given(slots_strategy)
def test_slot_never_overlaps_disjoint_translate(slot):
    shifted = TimeSlot(slot.end, slot.end + slot.duration)
    assert not slot.overlaps(shifted)
