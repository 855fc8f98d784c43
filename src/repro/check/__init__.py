"""Independent solution verifier (design-rule checker).

``repro.check`` audits a completed
:class:`~repro.core.solution.SynthesisResult` against the paper's
constraints using only the problem inputs — it shares no logic with the
algorithms it audits (the schedulers' state machines, the placer's
legality test, the routers' slot planner, the metrics derivations).  One
module per domain:

* :mod:`repro.check.schedule` — DAG precedence, durations, binding
  exclusivity, channel-storage timelines, Eq. 2 wash gaps;
* :mod:`repro.check.placement` — grid bounds, footprints, clearance;
* :mod:`repro.check.routing` — connectivity, endpoint attachment,
  Eq. 5 per-cell slot conflicts, grid bookkeeping;
* :mod:`repro.check.metrics` — every reported Table I / Fig. 8 / Fig. 9
  number recomputed from first principles and diffed.

Violations carry stable rule ids (the catalogue lives in
:mod:`repro.check.report` and is documented in ``docs/VERIFICATION.md``);
:func:`check_result` bundles a full audit into a
:class:`~repro.check.report.CheckReport`.  The deliberate-corruption
harness proving each rule fires — and only that rule — is a test
fixture, ``tests/oracles/faults.py``, not part of the installed package.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.check.report import (
    CHECK_MODES,
    CheckReport,
    Rule,
    Severity,
    Violation,
    all_rules,
    get_rule,
    rule_ids,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.solution import SynthesisResult

#: The domain checkers import the schedule/place/route data models, which
#: in turn import :mod:`repro.assay.validation` — and *that* module needs
#: :mod:`repro.check.report` for the shared Violation vocabulary.  Keeping
#: this package's eager surface report-only (the checkers resolve lazily
#: via PEP 562) breaks the cycle.
_LAZY = {
    "check_schedule": ("repro.check.schedule", "check_schedule"),
    "check_placement": ("repro.check.placement", "check_placement"),
    "check_routing": ("repro.check.routing", "check_routing"),
    "check_metrics": ("repro.check.metrics", "check_metrics"),
}


def __getattr__(name: str):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    import importlib

    value = getattr(importlib.import_module(module_name), attr)
    globals()[name] = value
    return value

__all__ = [
    "CHECK_MODES",
    "CheckReport",
    "Rule",
    "Severity",
    "Violation",
    "all_rules",
    "get_rule",
    "rule_ids",
    "check_schedule",
    "check_placement",
    "check_routing",
    "check_metrics",
    "check_result",
]


def check_result(
    result: "SynthesisResult", subject: str | None = None
) -> CheckReport:
    """Audit one synthesis result against every registered rule.

    The input rules (``INP-*``) run too — they can only surface warnings
    here because :class:`~repro.core.problem.SynthesisProblem` refuses to
    construct with input *errors*, but the report then documents the full
    rule coverage of the audit.
    """
    from repro.assay.validation import validate_assay
    from repro.check.metrics import check_metrics
    from repro.check.placement import check_placement
    from repro.check.routing import check_routing
    from repro.check.schedule import check_schedule

    problem = result.problem
    violations: list[Violation] = []
    violations.extend(
        validate_assay(problem.assay, problem.allocation).violations
    )
    violations.extend(
        check_schedule(
            problem.assay,
            problem.allocation,
            problem.parameters.transport_time,
            result.schedule,
        )
    )
    violations.extend(
        check_placement(
            problem.allocation,
            problem.footprints(),
            problem.resolved_grid(),
            result.placement,
        )
    )
    violations.extend(
        check_routing(result.schedule, result.placement, result.routing)
    )
    violations.extend(
        check_metrics(
            problem.assay, result.schedule, result.routing, result.metrics
        )
    )
    return CheckReport(
        subject=subject if subject is not None else problem.assay.name,
        algorithm=result.algorithm,
        violations=tuple(violations),
        rules_checked=tuple(rule_ids()),
    )
