"""Unit tests for semantic assay validation."""

import pytest

from repro.assay.builder import AssayBuilder
from repro.assay.validation import check_assay, validate_assay
from repro.components.allocation import Allocation
from repro.errors import AllocationError


def mixed_assay():
    return (
        AssayBuilder("t")
        .mix("m", duration=2)
        .heat("h", duration=2, after=["m"])
        .detect("d", duration=2, after=["h"])
        .build()
    )


class TestValidateAssay:
    def test_sufficient_allocation_passes(self):
        allocation = Allocation(mixers=1, heaters=1, detectors=1)
        report = validate_assay(mixed_assay(), allocation)
        assert report.ok
        assert report.errors == []

    def test_missing_component_family_fails(self):
        allocation = Allocation(mixers=1, detectors=1)  # no heater
        report = validate_assay(mixed_assay(), allocation)
        assert not report.ok
        assert any("Heater" in error for error in report.errors)

    def test_multiple_missing_families_all_reported(self):
        allocation = Allocation(mixers=1)
        report = validate_assay(mixed_assay(), allocation)
        assert len(report.errors) == 2  # heater and detector missing

    def test_mix_fan_in_two_allowed(self):
        assay = (
            AssayBuilder("t")
            .mix("a", duration=1)
            .mix("b", duration=1)
            .mix("c", duration=1, after=["a", "b"])
            .build()
        )
        report = validate_assay(assay, Allocation(mixers=2))
        assert report.ok

    def test_detect_fan_in_two_rejected(self):
        assay = (
            AssayBuilder("t")
            .mix("a", duration=1)
            .mix("b", duration=1)
            .detect("d", duration=1, after=["a", "b"])
            .build()
        )
        report = validate_assay(assay, Allocation(mixers=2, detectors=1))
        assert not report.ok
        assert any("fan-in" in error for error in report.errors)

    def test_mix_fan_in_three_rejected(self):
        assay = (
            AssayBuilder("t")
            .mix("a", duration=1)
            .mix("b", duration=1)
            .mix("c", duration=1)
            .mix("m", duration=1, after=["a", "b", "c"])
            .build()
        )
        report = validate_assay(assay, Allocation(mixers=4))
        assert not report.ok

    def test_zero_duration_warns_but_passes(self):
        assay = AssayBuilder("t").mix("a", duration=0).build()
        report = validate_assay(assay, Allocation(mixers=1))
        assert report.ok
        assert any("zero duration" in warning for warning in report.warnings)


class TestCheckAssay:
    def test_raises_on_invalid(self):
        with pytest.raises(AllocationError, match="cannot be synthesised"):
            check_assay(mixed_assay(), Allocation(mixers=1))

    def test_silent_on_valid(self):
        check_assay(mixed_assay(), Allocation(mixers=1, heaters=1, detectors=1))

    def test_memoised_verdict_is_per_allocation(self):
        # A graph that passed on one allocation must still be checked,
        # and fail, on another; a failure is never remembered as a pass.
        assay = mixed_assay()
        check_assay(assay, Allocation(mixers=1, heaters=1, detectors=1))
        check_assay(assay, Allocation(mixers=1, heaters=1, detectors=1))
        for _ in range(2):
            with pytest.raises(AllocationError, match="cannot be synthesised"):
                check_assay(assay, Allocation(mixers=1, detectors=1))
