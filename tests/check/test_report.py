"""Tests for the rule catalogue, violation records, and check reports."""

import pytest

from repro.check.report import (
    CHECK_MODES,
    CheckReport,
    Severity,
    Violation,
    all_rules,
    get_rule,
    register_rule,
    rule_ids,
)

EXPECTED_RULES = {
    "INP-CAPACITY", "INP-FANIN", "INP-DURATION", "INP-SINK",
    "SCH-COVERAGE", "SCH-BINDING", "SCH-DURATION", "SCH-PRECEDENCE",
    "SCH-EXCLUSIVITY", "SCH-MOVEMENT", "SCH-STORAGE", "SCH-WASH",
    "PLC-COVERAGE", "PLC-FOOTPRINT", "PLC-BOUNDS", "PLC-SPACING",
    "RTE-COVERAGE", "RTE-CONNECTIVITY", "RTE-OBSTACLE", "RTE-ENDPOINTS",
    "RTE-CONFLICT", "RTE-COMMIT",
    "MET-EXEC", "MET-UTIL", "MET-LENGTH", "MET-CACHE", "MET-WASH",
    "MET-COUNT",
}


class TestCatalogue:
    def test_expected_rule_ids(self):
        assert set(rule_ids()) == EXPECTED_RULES

    def test_rule_ids_sorted(self):
        assert rule_ids() == sorted(rule_ids())

    def test_domains(self):
        domains = {rule.domain for rule in all_rules()}
        assert domains == {
            "input", "schedule", "placement", "routing", "metrics"
        }

    def test_every_rule_has_summary_and_paper_ref(self):
        for rule in all_rules():
            assert rule.summary
            assert rule.paper_ref

    def test_only_input_duration_is_a_warning(self):
        warnings = [
            r.rule_id for r in all_rules() if r.severity is Severity.WARNING
        ]
        assert warnings == ["INP-DURATION"]

    def test_reregistration_is_idempotent(self):
        rule = get_rule("SCH-WASH")
        again = register_rule(
            rule.rule_id, rule.domain, rule.summary, rule.paper_ref,
            severity=rule.severity,
        )
        assert again == rule

    def test_conflicting_registration_raises(self):
        with pytest.raises(ValueError, match="conflicting"):
            register_rule(
                "SCH-WASH", "schedule", "a different summary", "Sec. X"
            )

    def test_get_unknown_rule_raises(self):
        with pytest.raises(KeyError):
            get_rule("NOPE-RULE")

    def test_check_modes(self):
        assert CHECK_MODES == ("off", "report", "strict")


class TestViolation:
    def test_of_takes_severity_from_catalogue(self):
        violation = Violation.of("SCH-WASH", "too early", "Mixer1")
        assert violation.severity is Severity.ERROR
        assert violation.entities == ("Mixer1",)
        warning = Violation.of("INP-DURATION", "zero duration", "m1")
        assert warning.severity is Severity.WARNING

    def test_dict_round_trip(self):
        violation = Violation.of("RTE-CONFLICT", "overlap", "(3,4)", "tk0")
        assert Violation.from_dict(violation.to_dict()) == violation


class TestCheckReport:
    def _report(self):
        return CheckReport(
            subject="PCR",
            algorithm="ours",
            violations=(
                Violation.of("SCH-WASH", "gap too small", "Mixer1"),
                Violation.of("INP-DURATION", "zero duration", "m1"),
                Violation.of("SCH-WASH", "another gap", "Mixer2"),
            ),
            rules_checked=tuple(rule_ids()),
        )

    def test_counts_and_ok(self):
        report = self._report()
        assert report.error_count == 2
        assert report.warning_count == 1
        assert not report.ok
        clean = CheckReport(subject="PCR", algorithm="ours")
        assert clean.ok and clean.error_count == 0

    def test_warnings_do_not_break_ok(self):
        report = CheckReport(
            subject="x", algorithm="ours",
            violations=(Violation.of("INP-DURATION", "zero", "m1"),),
        )
        assert report.ok

    def test_fired_rules_and_violations_for(self):
        report = self._report()
        assert report.fired_rules() == ["INP-DURATION", "SCH-WASH"]
        assert len(report.violations_for("SCH-WASH")) == 2

    def test_json_round_trip(self):
        report = self._report()
        restored = CheckReport.from_json(report.to_json())
        assert restored == report

    def test_render_mentions_counts_and_rules(self):
        text = self._report().render()
        assert "PCR [ours]" in text
        assert "2 error(s), 1 warning(s)" in text
        assert "SCH-WASH" in text
        clean = CheckReport(
            subject="PCR", algorithm="ours",
            rules_checked=tuple(rule_ids()),
        ).render()
        assert "clean" in clean
        assert f"({len(rule_ids())} rules evaluated)" in clean
