"""Violation records, the rule catalogue, and the check report.

The checker subsystem (:mod:`repro.check`) audits finished synthesis
artefacts against the paper's constraints.  Every constraint it can
detect is registered here as a :class:`Rule` with a stable identifier
(``SCH-PRECEDENCE``, ``RTE-CONFLICT``, ...), a one-line statement of the
constraint, and the paper section it comes from — the same identifiers
the fault-injection harness (``tests/oracles/faults.py``), the tests,
and ``docs/VERIFICATION.md`` use.

A checker that finds a broken constraint emits a :class:`Violation`
(rule id, severity, offending entities, human-readable detail); a full
audit bundles them into a :class:`CheckReport` with JSON round-tripping
for CI artifacts and the experiment harness.

This module is deliberately dependency-free (standard library only) so
both the input validator (:mod:`repro.assay.validation`) and the output
checkers can share the vocabulary without import cycles.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum

__all__ = [
    "CHECK_MODES",
    "Severity",
    "Rule",
    "Violation",
    "CheckReport",
    "register_rule",
    "get_rule",
    "all_rules",
    "rule_ids",
]

#: Accepted values of ``SynthesisParameters.check`` / ``--check``:
#: ``off`` skips the audit entirely, ``report`` attaches the report to
#: the result, ``strict`` additionally raises
#: :class:`~repro.errors.CheckError` on any error-severity violation.
CHECK_MODES = ("off", "report", "strict")


class Severity(str, Enum):
    """How bad a violated rule is.

    ``ERROR`` marks a solution that breaks a hard constraint of the
    problem formulation; ``WARNING`` marks suspicious-but-legal
    constructs (currently only zero-duration operations on input).
    """

    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class Rule:
    """One entry of the rule catalogue."""

    rule_id: str
    #: Checker domain: ``input`` / ``schedule`` / ``placement`` /
    #: ``routing`` / ``metrics``.
    domain: str
    #: One-line statement of the constraint the rule enforces.
    summary: str
    #: Paper section the constraint comes from.
    paper_ref: str
    severity: Severity = Severity.ERROR


_RULES: dict[str, Rule] = {}


def register_rule(
    rule_id: str,
    domain: str,
    summary: str,
    paper_ref: str,
    severity: Severity = Severity.ERROR,
) -> Rule:
    """Register a rule in the catalogue (idempotent per id)."""
    rule = Rule(
        rule_id=rule_id,
        domain=domain,
        summary=summary,
        paper_ref=paper_ref,
        severity=severity,
    )
    existing = _RULES.get(rule_id)
    if existing is not None and existing != rule:
        raise ValueError(f"conflicting registrations for rule {rule_id!r}")
    _RULES[rule_id] = rule
    return rule


def get_rule(rule_id: str) -> Rule:
    """Catalogue entry for *rule_id* (raises ``KeyError`` when unknown)."""
    return _RULES[rule_id]


def all_rules() -> list[Rule]:
    """Every registered rule, sorted by id."""
    return [_RULES[rid] for rid in sorted(_RULES)]


def rule_ids() -> list[str]:
    """All registered rule ids, sorted."""
    return sorted(_RULES)


@dataclass(frozen=True)
class Violation:
    """One detected constraint violation."""

    rule_id: str
    severity: Severity
    #: Identifiers of the offending entities (operation ids, component
    #: ids, task ids, cells rendered as ``(x,y)``, metric names).
    entities: tuple[str, ...]
    #: Human-readable explanation with the concrete numbers.
    detail: str

    @classmethod
    def of(cls, rule_id: str, detail: str, *entities: str) -> "Violation":
        """Build a violation, taking the severity from the catalogue."""
        return cls(
            rule_id=rule_id,
            severity=get_rule(rule_id).severity,
            entities=tuple(str(e) for e in entities),
            detail=detail,
        )

    def to_dict(self) -> dict:
        return {
            "rule_id": self.rule_id,
            "severity": self.severity.value,
            "entities": list(self.entities),
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Violation":
        return cls(
            rule_id=payload["rule_id"],
            severity=Severity(payload["severity"]),
            entities=tuple(payload.get("entities", ())),
            detail=payload["detail"],
        )


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one full solution audit."""

    #: What was audited (benchmark / assay name).
    subject: str
    #: Which flow produced the solution (``"ours"`` / ``"baseline"``).
    algorithm: str
    violations: tuple[Violation, ...] = ()
    #: Rule ids the audit evaluated (a clean report proves these held).
    rules_checked: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        """``True`` when no *error*-severity violation was found."""
        return self.error_count == 0

    @property
    def error_count(self) -> int:
        return sum(
            1 for v in self.violations if v.severity is Severity.ERROR
        )

    @property
    def warning_count(self) -> int:
        return sum(
            1 for v in self.violations if v.severity is Severity.WARNING
        )

    def fired_rules(self) -> list[str]:
        """Sorted ids of the rules with at least one violation."""
        return sorted({v.rule_id for v in self.violations})

    def violations_for(self, rule_id: str) -> list[Violation]:
        return [v for v in self.violations if v.rule_id == rule_id]

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "subject": self.subject,
            "algorithm": self.algorithm,
            "ok": self.ok,
            "error_count": self.error_count,
            "warning_count": self.warning_count,
            "rules_checked": list(self.rules_checked),
            "violations": [v.to_dict() for v in self.violations],
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, payload: dict) -> "CheckReport":
        return cls(
            subject=payload["subject"],
            algorithm=payload["algorithm"],
            violations=tuple(
                Violation.from_dict(v) for v in payload.get("violations", ())
            ),
            rules_checked=tuple(payload.get("rules_checked", ())),
        )

    @classmethod
    def from_json(cls, text: str) -> "CheckReport":
        return cls.from_dict(json.loads(text))

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def render(self) -> str:
        """Multi-line human-readable report."""
        head = (
            f"check report for {self.subject} [{self.algorithm}]: "
            + (
                "clean"
                if not self.violations
                else f"{self.error_count} error(s), "
                f"{self.warning_count} warning(s)"
            )
            + f" ({len(self.rules_checked)} rules evaluated)"
        )
        lines = [head]
        for violation in self.violations:
            entities = (
                " [" + ", ".join(violation.entities) + "]"
                if violation.entities
                else ""
            )
            lines.append(
                f"  {violation.severity.value.upper():7s} "
                f"{violation.rule_id}{entities}: {violation.detail}"
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# The rule catalogue (see docs/VERIFICATION.md for the prose version)
# ----------------------------------------------------------------------

# Input rules (pre-synthesis, shared with repro.assay.validation).
register_rule(
    "INP-CAPACITY", "input",
    "every operation type used by the assay has at least one allocated "
    "component",
    "Sec. III (problem formulation)",
)
register_rule(
    "INP-FANIN", "input",
    "operation fan-in stays within the physical limit of its component "
    "type (2 for mixers, 1 otherwise)",
    "Sec. II-C",
)
register_rule(
    "INP-DURATION", "input",
    "operations have a positive execution time",
    "Sec. II-C (Fig. 2(a))",
    severity=Severity.WARNING,
)
register_rule(
    "INP-SINK", "input",
    "the sequencing graph has at least one sink operation",
    "Sec. II-C",
)

# Schedule rules.
register_rule(
    "SCH-COVERAGE", "schedule",
    "every assay operation is scheduled exactly once and nothing else is",
    "Sec. III / Alg. 1",
)
register_rule(
    "SCH-BINDING", "schedule",
    "every operation is bound to an allocated component of its type",
    "Sec. III (binding function)",
)
register_rule(
    "SCH-DURATION", "schedule",
    "every operation runs for exactly its specified execution time",
    "Sec. II-C",
)
register_rule(
    "SCH-PRECEDENCE", "schedule",
    "no operation starts before its parents finish, and no fluid departs "
    "before its producer finishes",
    "Sec. II-C (sequencing-graph dependencies)",
)
register_rule(
    "SCH-EXCLUSIVITY", "schedule",
    "operations bound to one component never overlap in time",
    "Sec. III",
)
register_rule(
    "SCH-MOVEMENT", "schedule",
    "every fluidic edge is served by exactly one movement whose "
    "endpoints match the producer's and consumer's bindings",
    "Sec. IV-A",
)
register_rule(
    "SCH-STORAGE", "schedule",
    "movement timelines respect the channel-storage model: transport "
    "takes exactly t_c (0 in place), caching is non-negative, and the "
    "fluid is consumed exactly when its consumer starts",
    "Sec. IV-A (DCSA, 'transport or store')",
)
register_rule(
    "SCH-WASH", "schedule",
    "after a residue leaves a component, the next operation waits for "
    "the wash to complete (Eq. 2)",
    "Sec. II-B / Eq. 2",
)

# Placement rules.
register_rule(
    "PLC-COVERAGE", "placement",
    "exactly the allocated components are placed",
    "Sec. III",
)
register_rule(
    "PLC-FOOTPRINT", "placement",
    "every block has its library footprint (possibly rotated 90 degrees)",
    "Sec. IV-B.1 (Fig. 4)",
)
register_rule(
    "PLC-BOUNDS", "placement",
    "the placement uses the problem's chip grid and every block lies "
    "inside it without walling off the routing plane",
    "Sec. IV-B.1",
)
register_rule(
    "PLC-SPACING", "placement",
    "blocks keep at least one channel-width of clearance from each other",
    "Sec. IV-B.1 (Fig. 1 channel clearance)",
)

# Routing rules.
register_rule(
    "RTE-COVERAGE", "routing",
    "exactly the schedule's physical transport tasks are routed, each "
    "once",
    "Sec. IV-B.2 / Alg. 2",
)
register_rule(
    "RTE-CONNECTIVITY", "routing",
    "every routed path is a non-empty 4-connected sequence of distinct "
    "cells",
    "Sec. IV-B.2",
)
register_rule(
    "RTE-OBSTACLE", "routing",
    "paths only use on-grid cells not covered by component blocks",
    "Sec. IV-B.2",
)
register_rule(
    "RTE-ENDPOINTS", "routing",
    "paths attach to their source and destination components (cache "
    "cells of self-loop tasks stay adjacent to their component's ports)",
    "Sec. IV-B.2",
)
register_rule(
    "RTE-CONFLICT", "routing",
    "per-cell occupation time slots are pairwise disjoint (Eq. 5)",
    "Sec. IV-B.2 / Eq. 5",
)
register_rule(
    "RTE-COMMIT", "routing",
    "every routed path records one occupation per cell and every "
    "occupation lies within its task's transport+storage window",
    "Sec. IV-B.2 / Alg. 2 lines 15-17",
)

# Metrics rules.
register_rule(
    "MET-EXEC", "metrics",
    "the reported execution time equals the makespan recomputed from "
    "first principles (with routing postponements propagated)",
    "Sec. V / Table I",
)
register_rule(
    "MET-UTIL", "metrics",
    "the reported resource utilisation equals the Eq. 1 recomputation",
    "Sec. II-C / Eq. 1",
)
register_rule(
    "MET-LENGTH", "metrics",
    "the reported channel length equals the distinct routed cells times "
    "the grid pitch",
    "Sec. V / Table I",
)
register_rule(
    "MET-CACHE", "metrics",
    "the reported cache time equals the sum of movement cache durations",
    "Sec. V / Fig. 8",
)
register_rule(
    "MET-WASH", "metrics",
    "the reported wash times equal the usage-history replay (channels) "
    "and the component bookkeeping",
    "Sec. V / Fig. 9",
)
register_rule(
    "MET-COUNT", "metrics",
    "the reported transport count and total postponement match the "
    "artefacts",
    "Sec. V",
)
