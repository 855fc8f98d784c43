"""Fuzzing :func:`repro.serve.protocol.parse_submission` with hostile JSON.

Whatever JSON value a client sends — wrong types, huge integers,
non-finite numbers, deep nesting, unknown keys — the parser either
returns a valid :class:`~repro.serve.protocol.Submission` or raises a
:class:`~repro.errors.ReproError` subclass (which the server maps to
HTTP 400).  Any other exception would be a 500.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.assay.io import assay_to_dict
from repro.benchmarks.registry import benchmark_names, get_benchmark
from repro.core.digest import canonical_json, problem_document, text_digest
from repro.errors import ReproError
from repro.serve.protocol import Submission, parse_submission

#: Scalars a JSON decoder can produce (Python's accepts NaN/Infinity).
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=10**18, max_value=10**400)
    | st.floats()
    | st.text(max_size=12)
)

JSON = st.recursive(
    SCALARS,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)

PARAMETER_NAMES = (
    "seed", "beta", "gamma", "transport_time", "cooling_rate",
    "iterations_per_temperature", "grid_fill_ratio", "cell_pitch_mm",
    "restarts", "check", "jobs", "placement_engine", "unknown",
)

TOP_KEYS = (
    "benchmark", "assay", "allocation", "parameters", "algorithm",
    "job_id", "extra",
)


def _value_for(key: str) -> st.SearchStrategy:
    """Plausible-or-hostile values for one top-level field."""
    if key == "benchmark":
        return st.sampled_from(benchmark_names()) | JSON
    if key == "assay":
        return _assay_documents() | JSON
    if key == "allocation":
        return (
            st.dictionaries(
                st.sampled_from(
                    ("mixers", "heaters", "filters", "detectors", "other")
                ),
                SCALARS | JSON,
                max_size=5,
            )
            | JSON
        )
    if key == "parameters":
        return (
            st.dictionaries(
                st.sampled_from(PARAMETER_NAMES), SCALARS | JSON, max_size=4
            )
            | JSON
        )
    if key == "algorithm":
        return st.sampled_from(("ours", "baseline")) | JSON
    return JSON


@st.composite
def _assay_documents(draw) -> dict:
    """A registered assay's document with a few fields made hostile."""
    document = assay_to_dict(get_benchmark(draw(st.sampled_from(
        ("PCR", "IVD", "Fig2a")
    ))).assay)
    targets = draw(st.lists(
        st.sampled_from(
            ("op", "fluid", "name", "format", "version", "operations",
             "edges")
        ),
        max_size=3,
    ))
    # Field edits inside the operation list come before any edit that
    # replaces the list itself.
    for target in sorted(targets, key=("op", "fluid").__contains__,
                         reverse=True):
        value = draw(SCALARS | JSON)
        if target == "op":
            op = document["operations"][0]
            op[draw(st.sampled_from(("id", "type", "duration", "fluid")))] = (
                value
            )
        elif target == "fluid":
            fluid = document["operations"][-1]["fluid"]
            if isinstance(fluid, dict):
                fluid[draw(st.sampled_from(
                    ("name", "diffusion_coefficient", "wash_time_override")
                ))] = value
        else:
            document[target] = value
    return document


@st.composite
def submissions(draw) -> dict:
    keys = draw(st.sets(st.sampled_from(TOP_KEYS), max_size=5))
    return {key: draw(_value_for(key)) for key in keys}


def _parse(document):
    """Parse *document*; return the submission, or ``None`` on a typed
    rejection.  Any other exception propagates and fails the test."""
    try:
        submission = parse_submission(document)
    except ReproError:
        return None
    assert isinstance(submission, Submission)
    assert len(submission.digest) == 64
    # An accepted submission's digest is the content address of the
    # problem it names, and its canonical document parses again.
    oracle = text_digest(
        canonical_json(problem_document(submission.problem))
    )
    assert submission.digest == oracle
    assert parse_submission(submission.document).digest == oracle
    return submission


def _nested(depth: int, leaf=0):
    value = leaf
    for _ in range(depth):
        value = [value]
    return value


class TestParseSubmissionFuzz:
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(JSON)
    def test_any_json_value(self, document):
        _parse(document)

    @settings(
        max_examples=400,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(submissions())
    def test_submission_shaped_documents(self, document):
        _parse(document)

    def test_deep_nesting_anywhere(self):
        deep = _nested(5_000)
        deep_object: object = {}
        for _ in range(5_000):
            deep_object = {"k": deep_object}
        pcr = assay_to_dict(get_benchmark("PCR").assay)
        for hostile in (deep, deep_object):
            documents = [
                hostile,
                {"benchmark": hostile},
                {"benchmark": "PCR", "job_id": hostile},
                {"benchmark": "PCR", "algorithm": hostile},
                {"benchmark": "PCR", "parameters": hostile},
                {"benchmark": "PCR", "parameters": {"seed": hostile}},
                {"assay": hostile, "allocation": {"mixers": 3}},
                {"assay": pcr, "allocation": {"mixers": hostile}},
                {"assay": {**pcr, "name": hostile}, "allocation": {"mixers": 3}},
                {"assay": {**pcr, "edges": hostile}, "allocation": {"mixers": 3}},
                {"assay": {**pcr, "operations": hostile},
                 "allocation": {"mixers": 3}},
                {"assay": {**pcr, "operations": [
                    {**pcr["operations"][0], "id": hostile, "duration": -1}
                 ]}, "allocation": {"mixers": 3}},
                {"assay": {**pcr, "operations": [
                    {**pcr["operations"][0], "fluid": {
                        **pcr["operations"][0]["fluid"], "name": hostile,
                        "diffusion_coefficient": -1,
                    }}
                 ]}, "allocation": {"mixers": 3}},
            ]
            for document in documents:
                assert _parse(document) is None, document.keys()

    def test_huge_and_non_finite_numbers(self):
        pcr = assay_to_dict(get_benchmark("PCR").assay)
        for value in (10**400, -(10**400), float("inf"), float("nan")):
            for name in ("seed", "beta", "restarts", "grid_fill_ratio"):
                _parse({"benchmark": "PCR", "parameters": {name: value}})
            _parse({"assay": pcr, "allocation": {"mixers": value}})
            operations = [dict(op) for op in pcr["operations"]]
            operations[0]["duration"] = value
            _parse({
                "assay": {**pcr, "operations": operations},
                "allocation": {"mixers": 3},
            })
