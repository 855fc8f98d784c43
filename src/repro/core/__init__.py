"""End-to-end synthesis flows, problem definition, and metrics."""

from repro.core.baseline import synthesize_baseline, synthesize_problem_baseline
from repro.core.io import (
    SolutionRecord,
    dump_solution,
    load_solution,
    result_to_dict,
)
from repro.core.metrics import (
    SynthesisMetrics,
    channel_wash_time,
    compute_metrics,
    improvement,
)
from repro.core.problem import SynthesisParameters, SynthesisProblem
from repro.core.solution import SynthesisResult
from repro.core.synthesizer import synthesize, synthesize_problem

__all__ = [
    "SolutionRecord",
    "SynthesisMetrics",
    "SynthesisParameters",
    "SynthesisProblem",
    "SynthesisResult",
    "channel_wash_time",
    "compute_metrics",
    "dump_solution",
    "improvement",
    "load_solution",
    "result_to_dict",
    "synthesize",
    "synthesize_baseline",
    "synthesize_problem",
    "synthesize_problem_baseline",
]
