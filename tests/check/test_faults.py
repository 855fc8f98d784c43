"""The fault-injection matrix: every catalogue rule demonstrably fires.

For each rule id the harness corrupts a *valid* solution (or builds a
corrupted problem, for the ``INP-*`` rules) so that exactly that rule
fires — proving the checker is sensitive to every constraint it claims
to enforce and that the rules do not cascade into each other.
"""

import pytest

from repro.assay.validation import validate_assay
from repro.check import check_result
from repro.check.faults import (
    FaultInjectionError,
    build_input_fault,
    fired_error_rules,
    inject,
    input_fault_rules,
    solution_fault_rules,
)
from repro.check.report import rule_ids

from tests.check.test_checkers import _solve

#: Substrates per rule — two (benchmark, flow) pairs each, chosen so the
#: corruption has room to be surgical (e.g. ``SCH-BINDING`` needs a
#: second component type to rebind to, which mixer-only PCR lacks;
#: ``RTE-CONFLICT`` needs a cell whose occupations can be widened inside
#: another task's transport window).
FAULT_MATRIX = {
    "SCH-COVERAGE": [("PCR", "ours"), ("PCR", "baseline")],
    "SCH-BINDING": [("IVD", "ours"), ("IVD", "baseline")],
    "SCH-DURATION": [("PCR", "ours"), ("PCR", "baseline")],
    "SCH-PRECEDENCE": [("PCR", "ours"), ("PCR", "baseline")],
    "SCH-EXCLUSIVITY": [("PCR", "ours"), ("PCR", "baseline")],
    "SCH-MOVEMENT": [("PCR", "ours"), ("PCR", "baseline")],
    "SCH-STORAGE": [("PCR", "ours"), ("PCR", "baseline")],
    "SCH-WASH": [("IVD", "ours"), ("IVD", "baseline")],
    "PLC-COVERAGE": [("PCR", "ours"), ("PCR", "baseline")],
    "PLC-FOOTPRINT": [("PCR", "ours"), ("PCR", "baseline")],
    "PLC-BOUNDS": [("PCR", "ours"), ("PCR", "baseline")],
    "PLC-SPACING": [("PCR", "ours"), ("IVD", "ours")],
    "RTE-COVERAGE": [("PCR", "ours"), ("PCR", "baseline")],
    "RTE-CONNECTIVITY": [("PCR", "baseline"), ("IVD", "baseline")],
    "RTE-OBSTACLE": [("PCR", "baseline"), ("Fig2a", "ours")],
    "RTE-ENDPOINTS": [("PCR", "ours"), ("PCR", "baseline")],
    "RTE-CONFLICT": [("Fig2a", "baseline"), ("CPA", "ours")],
    "RTE-COMMIT": [("PCR", "ours"), ("IVD", "ours")],
    "MET-EXEC": [("PCR", "ours"), ("PCR", "baseline")],
    "MET-UTIL": [("PCR", "ours"), ("PCR", "baseline")],
    "MET-LENGTH": [("PCR", "ours"), ("PCR", "baseline")],
    "MET-CACHE": [("PCR", "ours"), ("PCR", "baseline")],
    "MET-WASH": [("PCR", "ours"), ("PCR", "baseline")],
    "MET-COUNT": [("PCR", "ours"), ("PCR", "baseline")],
}

_SUBSTRATES: dict[tuple[str, str], object] = {}


def _substrate(name: str, flow: str):
    key = (name, flow)
    if key not in _SUBSTRATES:
        _SUBSTRATES[key] = _solve(name, flow)
    return _SUBSTRATES[key]


def test_every_rule_has_a_fault():
    """The matrix, the generators, and the catalogue agree exactly."""
    assert set(solution_fault_rules()) == set(FAULT_MATRIX)
    covered = set(solution_fault_rules()) | set(input_fault_rules())
    assert covered == set(rule_ids())


@pytest.mark.parametrize(
    ("rule_id", "name", "flow"),
    [
        (rule_id, name, flow)
        for rule_id, substrates in sorted(FAULT_MATRIX.items())
        for name, flow in substrates
    ],
)
def test_fault_fires_exactly_its_rule(rule_id, name, flow):
    result = _substrate(name, flow)
    # Silent on the valid solution...
    assert fired_error_rules(check_result(result)) == set()
    # ...and exactly the seeded rule fires on the corrupted one.
    corrupted = inject(result, rule_id)
    fired = fired_error_rules(check_result(corrupted))
    assert fired == {rule_id}
    # Injection never mutates the original solution.
    assert fired_error_rules(check_result(result)) == set()


def test_occupation_outside_its_window_fires_commit():
    """RTE-COMMIT's second clause: an occupation that outlasts its
    task's transport+storage window."""
    import copy

    from repro.route.timeslots import TimeSlot

    corrupted = copy.deepcopy(_substrate("PCR", "ours"))
    path = corrupted.routing.paths[0]
    late = path.task.consume + path.postponement + 5.0
    last = path.occupations[-1]
    object.__setattr__(
        path,
        "occupations",
        path.occupations[:-1] + (TimeSlot(last.start, late),),
    )
    report = check_result(corrupted)
    assert "RTE-COMMIT" in fired_error_rules(report)
    assert any(
        "leaves the task's window" in v.detail
        for v in report.violations
        if v.rule_id == "RTE-COMMIT"
    )


@pytest.mark.parametrize("rule_id", sorted(input_fault_rules()))
def test_input_fault_fires_exactly_its_rule(rule_id):
    assay, allocation = build_input_fault(rule_id)
    report = validate_assay(assay, allocation)
    assert {v.rule_id for v in report.violations} == {rule_id}


def test_unknown_rule_raises():
    result = _substrate("PCR", "ours")
    with pytest.raises(FaultInjectionError, match="no fault generator"):
        inject(result, "NOPE-RULE")
    with pytest.raises(FaultInjectionError, match="no input fault"):
        build_input_fault("NOPE-RULE")
