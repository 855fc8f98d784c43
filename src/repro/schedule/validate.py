"""The raising schedule check every synthesis runs.

:func:`validate_schedule` replays a finished
:class:`~repro.schedule.schedule.Schedule` against its problem definition
through the ``SCH-*`` design rules of :mod:`repro.check.schedule` —
coverage, binding, duration, precedence, exclusivity, movement service,
the transport-or-store timeline of every fluid and the Eq. 2 wash gaps
(see ``docs/VERIFICATION.md``).  Both flows call it on every schedule,
so the inline check and the ``check=report|strict`` audit share one
definition of a valid schedule.
"""

from __future__ import annotations

from repro.check.report import Severity
from repro.check.schedule import check_schedule
from repro.errors import ValidationError
from repro.schedule.schedule import Schedule

__all__ = ["validate_schedule"]


def validate_schedule(schedule: Schedule) -> None:
    """Raise :class:`ValidationError` listing every error-severity
    ``SCH-*`` violation of *schedule* as ``RULE-ID: detail``."""
    errors = [
        f"{v.rule_id}: {v.detail}"
        for v in check_schedule(
            schedule.assay,
            schedule.allocation,
            schedule.transport_time,
            schedule,
        )
        if v.severity is Severity.ERROR
    ]
    if errors:
        raise ValidationError("invalid schedule: " + "; ".join(errors))
