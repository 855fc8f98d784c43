"""Channel wash planning from a routed layout.

The Fig. 9 metric sums the wash obligations accumulated on flow
channels; this module turns those obligations into an explicit *wash
plan*: one wash event per (path, residue) that must be flushed, with
its earliest feasible start time and duration, plus the optimisation
the conflict-aware router enables — **merged washes**: consecutive uses
of a cell by the *same* fluid need a single wash after the last use.

The plan's total duration equals
:func:`repro.core.metrics.channel_wash_time` by construction, which the
test-suite asserts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.instrument import Instrumentation
from repro.place.grid import Cell
from repro.route.router import RoutingResult
from repro.units import Seconds

__all__ = ["WashEvent", "WashPlan", "plan_channel_washes"]


@dataclass(frozen=True)
class WashEvent:
    """One required flush of one cell's residue."""

    cell: Cell
    fluid_name: str
    #: Earliest time the wash may start (when the residue's occupation ends).
    earliest_start: Seconds
    duration: Seconds


@dataclass
class WashPlan:
    """All wash events of a routed layout."""

    events: list[WashEvent] = field(default_factory=list)

    @property
    def total_duration(self) -> Seconds:
        """Σ durations — the Fig. 9 'total wash time of flow channels'."""
        return sum(event.duration for event in self.events)

    @property
    def event_count(self) -> int:
        return len(self.events)

    def events_for(self, cell: Cell) -> list[WashEvent]:
        return [event for event in self.events if event.cell == cell]


def plan_channel_washes(
    routing: RoutingResult,
    instrumentation: Instrumentation | None = None,
) -> WashPlan:
    """Derive the explicit wash plan of a routed layout.

    Per cell, usage events are replayed in slot order: a wash of the
    previous residue is scheduled whenever a *different* fluid reuses
    the cell (it must complete before the new fluid arrives, but its
    earliest start is when the previous occupation ends), and one final
    cleanup wash flushes the last residue of every used cell.
    """
    events: list[WashEvent] = []
    for cell, usages in sorted(routing.usage_history().items()):
        ordered = sorted(usages, key=lambda u: (u.slot.start, u.task_id))
        for earlier, later in zip(ordered, ordered[1:]):
            if earlier.fluid.name != later.fluid.name:
                events.append(
                    WashEvent(
                        cell=cell,
                        fluid_name=earlier.fluid.name,
                        earliest_start=earlier.slot.end,
                        duration=earlier.fluid.wash_time,
                    )
                )
        last = ordered[-1]
        events.append(
            WashEvent(
                cell=cell,
                fluid_name=last.fluid.name,
                earliest_start=last.slot.end,
                duration=last.fluid.wash_time,
            )
        )
    events.sort(key=lambda e: (e.earliest_start, e.cell.x, e.cell.y))
    plan = WashPlan(events=events)
    if instrumentation is not None:
        instrumentation.count("wash.planned_events", plan.event_count)
        instrumentation.gauge("wash.plan_duration", plan.total_duration)
    return plan
