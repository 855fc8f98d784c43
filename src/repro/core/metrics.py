"""Evaluation metrics (Table I columns, Fig. 8, Fig. 9).

All metrics are derived from the three synthesis artefacts (schedule,
placement, routing) so both algorithms are measured by *identical* code:

* **execution time** — makespan of the schedule after routing delays are
  retimed through it;
* **resource utilisation** — Eq. 1 over the allocated components;
* **total channel length** — distinct cells used by any routed path ×
  grid pitch (shared segments count once);
* **total cache time** — Σ channel-cache durations of all fluid
  movements (Fig. 8);
* **total channel wash time** — replaying each cell's usage history: a
  wash of the previous residue is charged whenever a *different* fluid
  reuses the cell, plus one final cleanup wash per dirty cell (Fig. 9).
  Routing the same fluid repeatedly through a shared channel therefore
  washes once — the sharing benefit the conflict-aware router exploits.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.instrument import Instrumentation
from repro.route.router import RoutingResult
from repro.schedule.retiming import retime_with_delays
from repro.schedule.schedule import Schedule
from repro.units import Millimetres, Seconds

__all__ = ["SynthesisMetrics", "compute_metrics", "channel_wash_time", "improvement"]


@dataclass(frozen=True)
class SynthesisMetrics:
    """The paper's per-benchmark evaluation numbers."""

    execution_time: Seconds
    resource_utilisation: float
    total_channel_length_mm: Millimetres
    total_cache_time: Seconds
    total_channel_wash_time: Seconds
    total_component_wash_time: Seconds
    transport_count: int
    total_postponement: Seconds
    cpu_time: Seconds = 0.0

    def as_dict(self) -> dict[str, float]:
        """Flat dictionary for report writers."""
        return {
            "execution_time_s": self.execution_time,
            "resource_utilisation": self.resource_utilisation,
            "total_channel_length_mm": self.total_channel_length_mm,
            "total_cache_time_s": self.total_cache_time,
            "total_channel_wash_time_s": self.total_channel_wash_time,
            "total_component_wash_time_s": self.total_component_wash_time,
            "transport_count": float(self.transport_count),
            "total_postponement_s": self.total_postponement,
            "cpu_time_s": self.cpu_time,
        }


def channel_wash_time(
    routing: RoutingResult,
    instrumentation: Instrumentation | None = None,
) -> Seconds:
    """Fig. 9 metric: total wash time charged on flow channels.

    For every cell, usage events are replayed in slot order; consecutive
    uses by different fluids charge the earlier fluid's wash, and the
    final residue of each used cell charges one cleanup wash.

    *instrumentation* receives a ``wash.events`` counter (one per wash
    charged) and a ``wash.total_time`` gauge.
    """
    total = 0.0
    washes = 0
    for _cell, events in routing.usage_history().items():
        ordered = sorted(events, key=lambda e: (e.slot.start, e.task_id))
        for earlier, later in zip(ordered, ordered[1:]):
            if earlier.fluid.name != later.fluid.name:
                total += earlier.fluid.wash_time
                washes += 1
        total += ordered[-1].fluid.wash_time
        washes += 1
    if instrumentation is not None:
        instrumentation.count("wash.events", washes)
        instrumentation.gauge("wash.total_time", total)
    return total


def compute_metrics(
    schedule: Schedule,
    routing: RoutingResult,
    cpu_time: Seconds = 0.0,
    instrumentation: Instrumentation | None = None,
) -> SynthesisMetrics:
    """Derive all evaluation metrics for one synthesis run.

    Routing postponements (if any) are propagated through the schedule
    with :func:`~repro.schedule.retiming.retime_with_delays` before the
    makespan is read — the reported execution time is therefore the
    *realised* one, not the optimistic planned one.
    """
    delays = routing.postponements()
    realised = retime_with_delays(schedule, delays) if delays else schedule
    return SynthesisMetrics(
        execution_time=realised.makespan,
        resource_utilisation=realised.resource_utilisation(),
        total_channel_length_mm=routing.total_length_mm(),
        total_cache_time=schedule.total_cache_time(),
        total_channel_wash_time=channel_wash_time(routing, instrumentation),
        total_component_wash_time=schedule.total_component_wash_time(),
        transport_count=schedule.transport_count(),
        total_postponement=routing.total_postponement,
        cpu_time=cpu_time,
    )


def improvement(ours: float, baseline: float) -> float:
    """Relative improvement of *ours* over *baseline*, in percent.

    Matches Table I's ``Imp (%)`` convention: positive when ours is
    smaller (execution time, channel length).  For utilisation the paper
    reports the increase, so callers flip the operands.
    """
    if baseline == 0:
        return 0.0
    return (baseline - ours) / baseline * 100.0
