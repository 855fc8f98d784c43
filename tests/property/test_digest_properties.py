"""Property tests: the memoised content address against its definition.

:func:`repro.core.digest.problem_digest` hashes a memoised per-assay
prefix and then only the grid and the parameters.  The oracle is the
definition it must reproduce byte for byte: the SHA-256 of the
canonical JSON of :func:`~repro.core.digest.problem_document`.  Problems
are drawn from generated assays, not only the registered benchmarks.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.assay.io import assay_from_dict, assay_to_dict
from repro.benchmarks.registry import benchmark_names, get_benchmark
from repro.benchmarks.synthetic import SyntheticSpec, generate_synthetic
from repro.components.allocation import Allocation
from repro.core.digest import (
    canonical_json,
    problem_digest,
    problem_document,
    text_digest,
)
from repro.core.problem import SynthesisParameters, SynthesisProblem
from repro.errors import AssayError
from repro.place.grid import ChipGrid
from repro.serve.protocol import parse_submission

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def oracle(problem: SynthesisProblem) -> str:
    return text_digest(canonical_json(problem_document(problem)))


@st.composite
def generated_assays(draw):
    """``(assay, allocation)`` from :func:`generate_synthetic` with a drawn
    spec, on a drawn allocation at least as large as the spec's."""
    spec_allocation = Allocation(
        mixers=draw(st.integers(1, 5)),
        heaters=draw(st.integers(0, 3)),
        filters=draw(st.integers(0, 3)),
        detectors=draw(st.integers(0, 2)),
    )
    spec = SyntheticSpec(
        draw(st.sampled_from(("Gen", "Synthetic1", "assay"))),
        draw(st.integers(2, 40)),
        spec_allocation,
        seed=draw(st.integers(0, 2**32)),
    )
    try:
        assay = generate_synthetic(spec)
    except AssayError:
        # Too few operations for the detections the spec asks for.
        assay = generate_synthetic(
            SyntheticSpec(spec.name, 10, spec_allocation, spec.seed)
        )
    extra = [draw(st.integers(0, 2)) for _ in range(4)]
    allocation = Allocation(
        *(count + more for count, more in zip(spec_allocation.as_tuple(), extra))
    )
    return assay, allocation


PARAMETERS = st.builds(
    SynthesisParameters,
    transport_time=st.sampled_from((0.0, 1.5, 2.0, 3)),
    beta=st.floats(0, 2, allow_nan=False),
    gamma=st.floats(0, 2, allow_nan=False),
    cooling_rate=st.sampled_from((0.5, 0.8, 0.9)),
    grid_fill_ratio=st.sampled_from((0.1, 0.25, 0.5, 1)),
    cell_pitch_mm=st.sampled_from((5.0, 10.0, 12.5)),
    seed=st.integers(0, 2**63),
    restarts=st.integers(1, 3),
    jobs=st.integers(0, 4),
    check=st.sampled_from(("off", "report", "strict")),
)

GRIDS = st.none() | st.builds(
    ChipGrid,
    width=st.integers(12, 40),
    height=st.integers(12, 40),
    pitch_mm=st.sampled_from((5.0, 10.0)),
)


@st.composite
def problems(draw) -> SynthesisProblem:
    assay, allocation = draw(generated_assays())
    return SynthesisProblem(
        assay=assay,
        allocation=allocation,
        parameters=draw(PARAMETERS),
        grid=draw(GRIDS),
    )


def _renamed(assay, name: str):
    return assay_from_dict({**assay_to_dict(assay), "name": name})


class TestMemoisedDigestMatchesTheOracle:
    @SETTINGS
    @given(problems())
    def test_equals_oracle_on_repeat_and_after_pickling(self, problem):
        expected = oracle(problem)
        assert problem_digest(problem) == expected
        assert problem_digest(problem) == expected
        # The memo never rides along in a pickle, and neither the
        # round trip nor the copy it makes changes the address.
        copy = pickle.loads(pickle.dumps(problem))
        assert copy.assay is not problem.assay
        assert problem_digest(copy) == expected
        assert problem_digest(problem) == expected

    @SETTINGS
    @given(problems(), PARAMETERS, st.integers(1, 3))
    def test_one_assay_many_parameter_sets_and_allocations(
        self, problem, parameters, more_mixers
    ):
        # The memo is per (assay, allocation): neither other parameters
        # nor another allocation of the same graph may reuse a prefix
        # that does not belong to them.
        bigger = Allocation(
            *(problem.allocation.mixers + more_mixers,
              *problem.allocation.as_tuple()[1:])
        )
        for allocation in (problem.allocation, bigger):
            other = SynthesisProblem(
                assay=problem.assay,
                allocation=allocation,
                parameters=parameters,
            )
            assert problem_digest(other) == oracle(other)
        assert problem_digest(problem) == oracle(problem)

    @SETTINGS
    @given(problems())
    def test_content_equal_assays_share_a_digest(self, problem):
        twin = SynthesisProblem(
            assay=_renamed(problem.assay, problem.assay.name),
            allocation=Allocation(*problem.allocation.as_tuple()),
            parameters=problem.parameters,
            grid=problem.grid,
        )
        assert twin.assay is not problem.assay
        assert problem_digest(twin) == problem_digest(problem)

    @SETTINGS
    @given(problems(), st.text(max_size=8))
    def test_a_different_name_is_a_different_assay(self, problem, suffix):
        renamed = SynthesisProblem(
            assay=_renamed(problem.assay, problem.assay.name + "!" + suffix),
            allocation=problem.allocation,
            parameters=problem.parameters,
            grid=problem.grid,
        )
        assert problem_digest(renamed) == oracle(renamed)
        assert problem_digest(renamed) != problem_digest(problem)

    @pytest.mark.parametrize("name", benchmark_names())
    def test_every_registered_benchmark(self, name):
        case = get_benchmark(name)
        for parameters in (
            SynthesisParameters(),
            SynthesisParameters(seed=33, restarts=2),
            SynthesisParameters(beta=1, grid_fill_ratio=0.5, check="report"),
        ):
            problem = SynthesisProblem(
                assay=case.assay,
                allocation=case.allocation,
                parameters=parameters,
            )
            assert problem_digest(problem) == oracle(problem)


class TestGraphIsImmutable:
    def test_name_is_read_only(self):
        assay = get_benchmark("PCR").assay
        with pytest.raises(AttributeError):
            assay.name = "other"  # type: ignore[misc]
        assert assay.name == "PCR"


SUBMITTED_PARAMETERS = st.fixed_dictionaries(
    {},
    optional={
        "seed": st.integers(0, 10**6),
        "beta": st.floats(0, 2, allow_nan=False),
        "restarts": st.integers(1, 2),
        "grid_fill_ratio": st.sampled_from((0.2, 0.25, 1)),
        "check": st.sampled_from(("off", "report")),
    },
)


class TestServiceDigestIsTheLibraryDigest:
    """``parse_submission`` digests through ``problem_digest``; its
    address equals the oracle of an independently built problem."""

    @SETTINGS
    @given(
        st.sampled_from(benchmark_names()),
        SUBMITTED_PARAMETERS,
        st.sampled_from(("ours", "baseline")),
    )
    def test_benchmark_documents(self, name, parameters, algorithm):
        submission = parse_submission(
            {"benchmark": name, "parameters": parameters,
             "algorithm": algorithm}
        )
        assert submission.digest == problem_digest(submission.problem)
        case = get_benchmark(name)
        fresh = SynthesisProblem(
            assay=assay_from_dict(assay_to_dict(case.assay)),
            allocation=case.allocation,
            parameters=SynthesisParameters(**parameters),
        )
        assert submission.digest == oracle(fresh)

    @SETTINGS
    @given(generated_assays(), SUBMITTED_PARAMETERS)
    def test_inline_assay_documents(self, generated, parameters):
        assay, allocation = generated
        allocation_document = dict(
            zip(("mixers", "heaters", "filters", "detectors"),
                allocation.as_tuple())
        )
        submission = parse_submission(
            {"assay": assay_to_dict(assay), "allocation": allocation_document,
             "parameters": parameters}
        )
        assert submission.digest == problem_digest(submission.problem)
        fresh = SynthesisProblem(
            assay=assay, allocation=allocation,
            parameters=SynthesisParameters(**parameters),
        )
        assert submission.digest == oracle(fresh)

    #: Legal integral values of each float field.  ``cooling_rate`` has
    #: none: it must lie strictly between 0 and 1.
    INTEGRAL_VALUES = {
        "transport_time": st.integers(0, 100),
        "beta": st.integers(0, 10**6),
        "gamma": st.integers(0, 10**6),
        "initial_temperature": st.integers(100, 10_000),
        "min_temperature": st.integers(1, 99),
        "initial_cell_weight": st.integers(0, 10**6),
        "cell_pitch_mm": st.integers(1, 100),
        "grid_fill_ratio": st.just(1),
    }

    @pytest.mark.parametrize("name", sorted(INTEGRAL_VALUES))
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_int_and_float_spellings_share_an_address(self, name, data):
        value = data.draw(self.INTEGRAL_VALUES[name])
        as_int, as_float = (
            parse_submission({"benchmark": "PCR", "parameters": {name: v}})
            for v in (value, float(value))
        )
        assert as_int.digest == as_float.digest
        assert as_int.cache_key == as_float.cache_key
        assert as_int.digest == oracle(as_float.problem)


class TestConcurrentMemos:
    """The service digests on its event loop while an inline job parses
    on the executor thread: the shared memo tables must never hand out a
    wrong prefix or verdict."""

    def test_threads_sharing_and_dropping_graphs(self):
        import sys
        import threading

        names = ("PCR", "CPA", "Synthetic4")
        problems = [
            SynthesisProblem(
                assay=get_benchmark(name).assay,
                allocation=get_benchmark(name).allocation,
                parameters=SynthesisParameters(seed=seed),
            )
            for name in names
            for seed in range(3)
        ]
        expected = [oracle(problem) for problem in problems]
        errors: list[str] = []

        def work(offset: int) -> None:
            for round_ in range(40):
                index = (offset + round_) % len(problems)
                problem = problems[index]
                if round_ % 4 == 0:
                    # A short-lived twin graph: its memo entries are
                    # made and dropped while other threads read.
                    problem = SynthesisProblem(
                        assay=_renamed(problem.assay, problem.assay.name),
                        allocation=problem.allocation,
                        parameters=problem.parameters,
                    )
                if problem_digest(problem) != expected[index]:
                    errors.append(f"{index} in round {round_}")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=work, args=(offset,))
                for offset in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
