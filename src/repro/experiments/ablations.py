"""Programmatic ablation studies (the A-series of DESIGN.md).

Each function runs one ablation and returns structured rows;
``python -m repro.experiments.ablations`` prints them all.  The
pytest-benchmark harnesses under ``benchmarks/`` assert the claims and
time the stages; this module is the user-facing way to regenerate the
numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.benchmarks.registry import TABLE1_ORDER, get_benchmark
from repro.core.metrics import channel_wash_time
from repro.experiments.reporting import format_table, run_main
from repro.place.annealing import AnnealingParameters, anneal_placement
from repro.place.energy import build_connection_priorities
from repro.core.problem import SynthesisProblem
from repro.route.router import route_tasks
from repro.schedule.baseline_scheduler import schedule_assay_baseline
from repro.schedule.dedicated import schedule_assay_dedicated
from repro.schedule.list_scheduler import schedule_assay
from repro.units import Seconds

__all__ = [
    "TransportTimeRow",
    "transport_time_ablation",
    "DedicatedStorageRow",
    "dedicated_storage_ablation",
    "CellWeightRow",
    "cell_weight_ablation",
    "main",
]

#: Moderate SA effort for sweeps (paper effort is unnecessary here).
_SWEEP_SA = AnnealingParameters(
    initial_temperature=1000.0,
    min_temperature=1.0,
    cooling_rate=0.85,
    iterations_per_temperature=60,
)


@dataclass(frozen=True)
class TransportTimeRow:
    """A3: one benchmark at one ``t_c``."""

    benchmark: str
    transport_time: Seconds
    ours_makespan: Seconds
    baseline_makespan: Seconds

    @property
    def gap(self) -> Seconds:
        return self.baseline_makespan - self.ours_makespan


def transport_time_ablation(
    values: tuple[Seconds, ...] = (1.0, 2.0, 4.0),
    names: tuple[str, ...] = TABLE1_ORDER,
) -> list[TransportTimeRow]:
    """Schedule every benchmark at each ``t_c``."""
    rows = []
    for name in names:
        case = get_benchmark(name)
        for t_c in values:
            rows.append(
                TransportTimeRow(
                    benchmark=name,
                    transport_time=t_c,
                    ours_makespan=schedule_assay(
                        case.assay, case.allocation, transport_time=t_c
                    ).makespan,
                    baseline_makespan=schedule_assay_baseline(
                        case.assay, case.allocation, transport_time=t_c
                    ).makespan,
                )
            )
    return rows


@dataclass(frozen=True)
class DedicatedStorageRow:
    """A4: DCSA vs the conventional dedicated-storage architecture."""

    benchmark: str
    dcsa_makespan: Seconds
    dedicated_makespan: Seconds

    @property
    def slowdown(self) -> float:
        if self.dcsa_makespan == 0:
            return 0.0
        return self.dedicated_makespan / self.dcsa_makespan


def dedicated_storage_ablation(
    names: tuple[str, ...] = TABLE1_ORDER,
) -> list[DedicatedStorageRow]:
    """Quantify the storage-port bottleneck per benchmark."""
    rows = []
    for name in names:
        case = get_benchmark(name)
        rows.append(
            DedicatedStorageRow(
                benchmark=name,
                dcsa_makespan=schedule_assay(case.assay, case.allocation).makespan,
                dedicated_makespan=schedule_assay_dedicated(
                    case.assay, case.allocation
                ).makespan,
            )
        )
    return rows


@dataclass(frozen=True)
class CellWeightRow:
    """A6: router behaviour at one initial cell weight."""

    initial_weight: float
    channel_length_cells: int
    channel_wash_time: Seconds
    postponement: Seconds


def cell_weight_ablation(
    name: str = "CPA",
    weights: tuple[float, ...] = (0.0, 2.0, 10.0, 50.0),
    seed: int = 1,
) -> list[CellWeightRow]:
    """Sweep ``w_e`` on one benchmark's routing stage."""
    case = get_benchmark(name)
    problem = SynthesisProblem(assay=case.assay, allocation=case.allocation)
    schedule = schedule_assay(case.assay, case.allocation)
    priorities = build_connection_priorities(schedule)
    annealed = anneal_placement(
        problem.resolved_grid(), problem.footprints(), priorities,
        _SWEEP_SA, seed=seed,
    )
    rows = []
    for w_e in weights:
        routing = route_tasks(
            annealed.placement, schedule.transport_tasks(), initial_weight=w_e
        )
        rows.append(
            CellWeightRow(
                initial_weight=w_e,
                channel_length_cells=routing.total_length_cells,
                channel_wash_time=channel_wash_time(routing),
                postponement=routing.total_postponement,
            )
        )
    return rows


def main() -> None:  # pragma: no cover - exercised via CLI
    print("== A3: t_c sensitivity (makespans, ours/BA) ==")
    rows3 = transport_time_ablation()
    print(
        format_table(
            ["Benchmark", "t_c", "Ours (s)", "BA (s)", "Gap (s)"],
            [
                [
                    r.benchmark,
                    f"{r.transport_time:g}",
                    f"{r.ours_makespan:.1f}",
                    f"{r.baseline_makespan:.1f}",
                    f"{r.gap:.1f}",
                ]
                for r in rows3
            ],
        )
    )
    print()
    print("== A4: DCSA vs dedicated storage ==")
    rows4 = dedicated_storage_ablation()
    print(
        format_table(
            ["Benchmark", "DCSA (s)", "Dedicated (s)", "Slowdown"],
            [
                [
                    r.benchmark,
                    f"{r.dcsa_makespan:.1f}",
                    f"{r.dedicated_makespan:.1f}",
                    f"{r.slowdown:.2f}x",
                ]
                for r in rows4
            ],
        )
    )
    print()
    print("== A6: initial cell weight w_e (CPA) ==")
    rows6 = cell_weight_ablation()
    print(
        format_table(
            ["w_e", "Length (cells)", "Channel wash (s)", "Postponement (s)"],
            [
                [
                    f"{r.initial_weight:g}",
                    str(r.channel_length_cells),
                    f"{r.channel_wash_time:.1f}",
                    f"{r.postponement:.1f}",
                ]
                for r in rows6
            ],
        )
    )


if __name__ == "__main__":  # pragma: no cover
    run_main(main)
