"""Synthesis result container.

:class:`SynthesisResult` bundles the three artefacts of one end-to-end
run — schedule, placement, routing — with the derived metrics and a
human-readable summary.  Both the proposed flow and the baseline return
this same type, so experiment harnesses treat them uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.check.report import CheckReport
from repro.core.metrics import SynthesisMetrics
from repro.core.problem import SynthesisProblem
from repro.place.placement import Placement
from repro.route.router import RoutingResult
from repro.schedule.schedule import Schedule

__all__ = ["SynthesisResult"]


@dataclass(frozen=True)
class SynthesisResult:
    """Everything produced by one synthesis run."""

    problem: SynthesisProblem
    algorithm: str
    schedule: Schedule
    placement: Placement
    routing: RoutingResult
    metrics: SynthesisMetrics
    #: Wall-clock seconds per pipeline phase (schedule / place / route /
    #: metrics).  Their sum never exceeds ``metrics.cpu_time``, which is
    #: measured around all of them by the shared pipeline driver.
    phase_times: dict[str, float] = field(default_factory=dict)
    #: Independent design-rule audit of this result, attached when the
    #: run's ``check`` mode is not ``"off"``.
    check_report: CheckReport | None = None

    def summary(self) -> str:
        """Multi-line human-readable report of the run."""
        m = self.metrics
        lines = [
            f"benchmark      : {self.schedule.assay.name}",
            f"algorithm      : {self.algorithm}",
            f"operations     : {len(self.schedule.assay)}",
            f"components     : {self.problem.allocation}",
            f"grid           : {self.placement.grid.width}x"
            f"{self.placement.grid.height} cells @ "
            f"{self.placement.grid.pitch_mm:g} mm",
            f"execution time : {m.execution_time:.1f} s",
            f"utilisation    : {m.resource_utilisation * 100:.1f} %",
            f"channel length : {m.total_channel_length_mm:.0f} mm",
            f"cache time     : {m.total_cache_time:.1f} s",
            f"channel wash   : {m.total_channel_wash_time:.1f} s",
            f"transports     : {m.transport_count}",
            f"cpu time       : {m.cpu_time:.3f} s",
        ]
        if m.total_postponement > 0:
            lines.append(f"postponements  : {m.total_postponement:.1f} s")
        if self.check_report is not None:
            verdict = (
                "clean"
                if self.check_report.ok
                else f"{self.check_report.error_count} violation(s)"
            )
            lines.append(f"check          : {verdict}")
        return "\n".join(lines)
