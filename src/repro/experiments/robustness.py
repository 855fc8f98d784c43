"""Seed-robustness study: do the Table I conclusions survive SA noise?

The simulated-annealing placer is the only stochastic stage of the
flow.  This experiment re-synthesises each benchmark across several
annealer seeds and summarises the distribution of every headline
metric, confirming that the Ours-vs-BA comparisons of Table I are not
artifacts of one lucky seed.  (BA is fully deterministic, so its
numbers are constants.)

Run with ``python -m repro.experiments.robustness``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.benchmarks.registry import TABLE1_ORDER, get_benchmark
from repro.core.baseline import synthesize_problem_baseline
from repro.core.problem import SynthesisParameters, SynthesisProblem
from repro.core.synthesizer import synthesize_problem
from repro.experiments.reporting import format_table, run_main

__all__ = ["SeedStudy", "run_seed_study", "render_seed_study", "main"]

DEFAULT_SEEDS = (1, 2, 3, 4, 5)


@dataclass(frozen=True)
class SeedStudy:
    """Per-benchmark distribution of ours' metrics across seeds."""

    name: str
    seeds: tuple[int, ...]
    execution_times: tuple[float, ...]
    channel_lengths: tuple[float, ...]
    utilisations: tuple[float, ...]
    baseline_execution_time: float
    baseline_channel_length: float
    baseline_utilisation: float

    @staticmethod
    def _mean(values: tuple[float, ...]) -> float:
        return sum(values) / len(values)

    @staticmethod
    def _std(values: tuple[float, ...]) -> float:
        mean = sum(values) / len(values)
        return math.sqrt(sum((v - mean) ** 2 for v in values) / len(values))

    @property
    def mean_execution_time(self) -> float:
        return self._mean(self.execution_times)

    @property
    def std_execution_time(self) -> float:
        return self._std(self.execution_times)

    @property
    def mean_channel_length(self) -> float:
        return self._mean(self.channel_lengths)

    @property
    def std_channel_length(self) -> float:
        return self._std(self.channel_lengths)

    @property
    def mean_utilisation(self) -> float:
        return self._mean(self.utilisations)

    def always_beats_baseline_execution(self) -> bool:
        """Whether ours wins (or ties) on execution time for EVERY seed."""
        return all(
            t <= self.baseline_execution_time + 1e-9
            for t in self.execution_times
        )


def run_seed_study(
    name: str, seeds: tuple[int, ...] = DEFAULT_SEEDS
) -> SeedStudy:
    """Synthesise *name* once per seed plus the (deterministic) baseline."""
    case = get_benchmark(name)
    executions: list[float] = []
    lengths: list[float] = []
    utilisations: list[float] = []
    for seed in seeds:
        problem = SynthesisProblem(
            assay=case.assay,
            allocation=case.allocation,
            parameters=SynthesisParameters(seed=seed),
        )
        metrics = synthesize_problem(problem).metrics
        executions.append(metrics.execution_time)
        lengths.append(metrics.total_channel_length_mm)
        utilisations.append(metrics.resource_utilisation)
    baseline_problem = SynthesisProblem(
        assay=case.assay,
        allocation=case.allocation,
        parameters=SynthesisParameters(seed=seeds[0]),
    )
    baseline = synthesize_problem_baseline(baseline_problem).metrics
    return SeedStudy(
        name=name,
        seeds=tuple(seeds),
        execution_times=tuple(executions),
        channel_lengths=tuple(lengths),
        utilisations=tuple(utilisations),
        baseline_execution_time=baseline.execution_time,
        baseline_channel_length=baseline.total_channel_length_mm,
        baseline_utilisation=baseline.resource_utilisation,
    )


def render_seed_study(studies: list[SeedStudy]) -> str:
    """A Table I-style summary with mean ± std over seeds."""
    headers = [
        "Benchmark",
        "Exec ours (s)",
        "Exec BA (s)",
        "Len ours (mm)",
        "Len BA (mm)",
        "Util ours (%)",
        "Util BA (%)",
        "Wins all seeds",
    ]
    rows = []
    for study in studies:
        rows.append(
            [
                study.name,
                f"{study.mean_execution_time:.1f}±{study.std_execution_time:.1f}",
                f"{study.baseline_execution_time:.1f}",
                f"{study.mean_channel_length:.0f}±{study.std_channel_length:.0f}",
                f"{study.baseline_channel_length:.0f}",
                f"{study.mean_utilisation * 100:.1f}",
                f"{study.baseline_utilisation * 100:.1f}",
                "yes" if study.always_beats_baseline_execution() else "NO",
            ]
        )
    return (
        "Seed-robustness of the Table I comparison "
        f"(seeds {studies[0].seeds if studies else ()})\n"
        + format_table(headers, rows)
    )


def main() -> None:  # pragma: no cover - exercised via CLI
    studies = [run_seed_study(name) for name in TABLE1_ORDER]
    print(render_seed_study(studies))


if __name__ == "__main__":  # pragma: no cover
    run_main(main)
