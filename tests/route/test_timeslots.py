"""Unit tests for time-slot sets."""

import pytest

from repro.errors import ValidationError
from repro.route.timeslots import TimeSlot, TimeSlotSet


class TestTimeSlot:
    def test_duration(self):
        assert TimeSlot(2.0, 5.0).duration == 3.0

    def test_reversed_interval_rejected(self):
        with pytest.raises(ValidationError):
            TimeSlot(5.0, 2.0)

    def test_overlap_basic(self):
        assert TimeSlot(0, 5).overlaps(TimeSlot(4, 6))
        assert TimeSlot(4, 6).overlaps(TimeSlot(0, 5))
        assert not TimeSlot(0, 5).overlaps(TimeSlot(6, 8))

    def test_half_open_touching_does_not_overlap(self):
        assert not TimeSlot(0, 5).overlaps(TimeSlot(5, 8))
        assert not TimeSlot(5, 8).overlaps(TimeSlot(0, 5))

    def test_zero_length_slot_overlaps_nothing(self):
        assert not TimeSlot(3, 3).overlaps(TimeSlot(0, 10))
        assert not TimeSlot(0, 10).overlaps(TimeSlot(3, 3))

    def test_containment_overlaps(self):
        assert TimeSlot(0, 10).overlaps(TimeSlot(3, 4))
        assert TimeSlot(3, 4).overlaps(TimeSlot(0, 10))


class TestTimeSlotSet:
    def test_add_and_iterate_sorted(self):
        slots = TimeSlotSet()
        slots.add(TimeSlot(5, 7))
        slots.add(TimeSlot(0, 2))
        slots.add(TimeSlot(3, 4))
        starts = [slot.start for slot in slots]
        assert starts == [0, 3, 5]
        assert len(slots) == 3

    def test_conflict_detection(self):
        slots = TimeSlotSet()
        slots.add(TimeSlot(2, 6))
        assert slots.conflicts_with(TimeSlot(5, 8))
        assert slots.conflicts_with(TimeSlot(0, 3))
        assert slots.conflicts_with(TimeSlot(3, 4))
        assert not slots.conflicts_with(TimeSlot(6, 9))
        assert not slots.conflicts_with(TimeSlot(0, 2))

    def test_conflict_across_many_slots(self):
        slots = TimeSlotSet()
        for start in range(0, 20, 4):
            slots.add(TimeSlot(start, start + 2))
        assert slots.conflicts_with(TimeSlot(1, 9))
        assert not slots.conflicts_with(TimeSlot(2, 4))
        assert not slots.conflicts_with(TimeSlot(18, 25))

    def test_overlapping_add_rejected(self):
        slots = TimeSlotSet()
        slots.add(TimeSlot(0, 5))
        with pytest.raises(ValidationError):
            slots.add(TimeSlot(4, 6))
        assert len(slots) == 1

    def test_empty_set_never_conflicts(self):
        assert not TimeSlotSet().conflicts_with(TimeSlot(0, 100))
