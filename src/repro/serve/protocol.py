"""Submission and result documents of the synthesis service.

A *submission* is the JSON body of ``POST /jobs``: either a registered
benchmark name or an inline assay document plus allocation, with an
optional subset of :class:`~repro.core.problem.SynthesisParameters`
overrides and a flow selector::

    {"benchmark": "PCR", "parameters": {"seed": 3, "check": "strict"}}

    {"assay": {...repro-assay JSON...},
     "allocation": {"mixers": 2, "heaters": 1, "filters": 0,
                    "detectors": 1},
     "parameters": {"seed": 1},
     "algorithm": "ours",
     "job_id": "client-chosen-idempotency-key"}

:func:`parse_submission` validates the document (through the same
machinery the CLI uses — bad assays, allocations, or parameter values
fail with the library's own error messages), canonicalises it, and
computes its content address.  Parameter values must carry the JSON
type of their field (integer, number, or string; booleans and
``null`` are never a number), so a malformed value is a 400 at the
door rather than a 500 or a job that can only fail in a worker.  The
synthesis flow is deterministic for a fixed problem, so the address
doubles as the result-cache key: submissions with equal digests are
*the same job*.

``jobs`` (process-pool width) is rejected in submissions: parallelism
is the server's resource decision, never the client's, and the digest
excludes it by construction (see :mod:`repro.core.digest`).

The *result document* (:func:`result_document`) is the canonical JSON
value a finished job serialises to.  Its canonical text — produced by
:func:`repro.core.digest.canonical_json` — is what the cache stores,
so a cache hit replays the original run's result byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dataclass_fields
from typing import Any, Mapping, get_type_hints

from repro.components.allocation import Allocation
from repro.core.digest import (
    DIGEST_EXCLUDED_PARAMETERS,
    DIGEST_VERSION,
    canonical_json,
    problem_digest,
    problem_document,
    text_digest,
)
from repro.core.io import result_to_dict
from repro.errors import ReproError

__all__ = [
    "ALGORITHMS",
    "RESULT_SCHEMA_VERSION",
    "Submission",
    "SubmissionError",
    "parse_submission",
    "result_document",
    "solution_digest",
]

#: Synthesis flows a submission may select.
ALGORITHMS = ("ours", "baseline")

#: Version stamp of the result document.  Version 2: ``solution_digest``
#: hashes the whole solution document, not the metrics alone.
RESULT_SCHEMA_VERSION = 2

#: Parameters a submission may not set: pool width belongs to the
#: server (and is digest-excluded anyway).
_FORBIDDEN_PARAMETERS = frozenset({"jobs"})

#: Maximum accepted client job-id length (it becomes a journal key and
#: part of URLs).
_MAX_JOB_ID = 120


class SubmissionError(ReproError):
    """Raised when a submission document is malformed (HTTP 400)."""


#: Lazily-computed (once) views of the ``SynthesisParameters`` schema —
#: recomputing ``dataclasses.fields`` per submission is measurable on
#: the service accept path.
_PARAMETER_TYPES: dict[str, type] | None = None
_DIGEST_FIELDS: tuple[str, ...] | None = None

#: JSON value types each parameter field type accepts (``bool`` is an
#: ``int`` subclass in Python, so it is excluded separately).
_ACCEPTED_TYPES: dict[type, tuple[type, ...]] = {
    int: (int,),
    float: (int, float),
    str: (str,),
}
_JSON_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string"}


def _parameter_types() -> dict[str, type]:
    """``SynthesisParameters`` field name -> declared type."""
    global _PARAMETER_TYPES
    if _PARAMETER_TYPES is None:
        from repro.core.problem import SynthesisParameters

        _PARAMETER_TYPES = get_type_hints(SynthesisParameters)
    return _PARAMETER_TYPES


def _json_type(value: Any) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    if isinstance(value, str):
        return "string"
    return "array" if isinstance(value, list) else "object"


def _check_parameter_types(parameters: Mapping[str, Any]) -> None:
    types = _parameter_types()
    for name, value in parameters.items():
        expected = types[name]
        if isinstance(value, bool) or not isinstance(
            value, _ACCEPTED_TYPES[expected]
        ):
            raise SubmissionError(
                f"parameter {name!r} must be {_JSON_TYPE_NAMES[expected]}, "
                f"got {_json_type(value)}"
            )


def _digest_fields() -> tuple[str, ...]:
    global _DIGEST_FIELDS
    if _DIGEST_FIELDS is None:
        from repro.core.problem import SynthesisParameters

        _DIGEST_FIELDS = tuple(
            f.name
            for f in dataclass_fields(SynthesisParameters)
            if f.name not in DIGEST_EXCLUDED_PARAMETERS
        )
    return _DIGEST_FIELDS


@dataclass(frozen=True)
class Submission:
    """One validated, canonicalised assay submission.

    ``document`` re-parses to an equal submission (it is what the job
    journal stores), ``digest`` is the problem content address, and
    ``cache_key`` namespaces it by algorithm — the baseline flow must
    never serve a cache entry produced by the proposed flow.
    """

    document: dict[str, Any]
    algorithm: str
    digest: str
    cache_key: str
    job_id: str | None = None

    @property
    def benchmark(self) -> str:
        """The assay's display name (benchmark name or assay name)."""
        if "benchmark" in self.document:
            return str(self.document["benchmark"])
        return str(self.document["assay"].get("name", "assay"))

    def problem(self):
        """Build the :class:`~repro.core.problem.SynthesisProblem`."""
        return _build_problem(self.document)


def _check_benchmark_name(name: str) -> None:
    from repro.benchmarks.registry import benchmark_names

    if name not in benchmark_names():
        raise SubmissionError(
            f"unknown benchmark {name!r}; expected one of "
            f"{', '.join(benchmark_names())}"
        )


def _build_problem(document: Mapping[str, Any]):
    from repro.assay.io import assay_from_dict
    from repro.benchmarks.registry import get_benchmark
    from repro.core.problem import SynthesisParameters, SynthesisProblem

    if "benchmark" in document:
        name = document["benchmark"]
        _check_benchmark_name(name)
        case = get_benchmark(name)
        assay, allocation = case.assay, case.allocation
    else:
        alloc_doc = document.get("allocation") or {}
        try:
            assay = assay_from_dict(document["assay"])
            allocation = Allocation(
                mixers=int(alloc_doc.get("mixers", 0)),
                heaters=int(alloc_doc.get("heaters", 0)),
                filters=int(alloc_doc.get("filters", 0)),
                detectors=int(alloc_doc.get("detectors", 0)),
            )
        except (TypeError, ValueError, KeyError, AttributeError) as error:
            raise SubmissionError(
                f"malformed assay or allocation: {error}"
            ) from None
    parameters = SynthesisParameters(**document.get("parameters", {}))
    return SynthesisProblem(
        assay=assay, allocation=allocation, parameters=parameters
    )


#: Benchmark name -> the frozen allocation plus the ``(allocation,
#: assay, grid)`` canonical-JSON fragments.  A registered benchmark's
#: assay/allocation half of the digest document never varies between
#: submissions, so it is rendered once and spliced into the canonical
#: text thereafter; only immutable values are cached, so no shared
#: mutable state leaks between requests.  Populating an entry builds
#: the full problem once, which also runs the assay-vs-allocation
#: feasibility check that is likewise parameter-independent.
_BENCHMARK_FRAGMENTS: dict[str, tuple[Allocation, str, str, str]] = {}


def _benchmark_fragments(name: str) -> tuple[Allocation, str, str, str]:
    fragments = _BENCHMARK_FRAGMENTS.get(name)
    if fragments is None:
        problem = _build_problem({"benchmark": name})
        document = problem_document(problem)
        fragments = (
            problem.allocation,
            canonical_json(document["allocation"]),
            canonical_json(document["assay"]),
            canonical_json(document["grid"]),
        )
        _BENCHMARK_FRAGMENTS[name] = fragments
    return fragments


def _digest_submission(document: Mapping[str, Any]) -> str:
    """Content address of *document*, validating it along the way.

    Equivalent to ``problem_digest(_build_problem(document))`` — the
    top-level keys of the digest document sort as ``allocation``,
    ``assay``, ``digest_version``, ``grid``, ``parameters``, so
    splicing independently
    canonicalised fragments reproduces
    :func:`~repro.core.digest.canonical_json` of the whole byte for
    byte (pinned by tests) — but for benchmark submissions the
    assay-side fragments come from :data:`_BENCHMARK_FRAGMENTS` and
    only the parameters (and the grid size they imply) are validated
    and rendered per call.
    """
    if "benchmark" not in document:
        return problem_digest(_build_problem(document))
    from repro.core.problem import SynthesisParameters, resolve_grid

    name = document["benchmark"]
    _check_benchmark_name(name)
    allocation, allocation_txt, assay_txt, grid_txt = (
        _benchmark_fragments(name)
    )
    parameters = SynthesisParameters(**document.get("parameters", {}))
    resolve_grid(allocation, parameters)
    parameters_txt = canonical_json(
        {name: getattr(parameters, name) for name in _digest_fields()}
    )
    return text_digest(
        '{"allocation":%s,"assay":%s,"digest_version":%d,"grid":%s,'
        '"parameters":%s}'
        % (allocation_txt, assay_txt, DIGEST_VERSION, grid_txt,
           parameters_txt)
    )


def parse_submission(data: Any) -> Submission:
    """Validate and canonicalise one submission document.

    Raises :class:`SubmissionError` for structural problems, including
    parameter values of the wrong JSON type and undecodable assays or
    allocations; parameter and assay value errors surface as the
    library's own :class:`~repro.errors.ReproError` subclasses (the
    server maps any of them to HTTP 400).
    """
    if not isinstance(data, Mapping):
        raise SubmissionError(
            f"submission must be a JSON object, got {type(data).__name__}"
        )
    unknown = set(data) - {
        "benchmark", "assay", "allocation", "parameters", "algorithm",
        "job_id",
    }
    if unknown:
        raise SubmissionError(
            f"unknown submission field(s): {', '.join(sorted(unknown))}"
        )
    if ("benchmark" in data) == ("assay" in data):
        raise SubmissionError(
            "submission needs exactly one of 'benchmark' or 'assay'"
        )
    algorithm = data.get("algorithm", "ours")
    if algorithm not in ALGORITHMS:
        raise SubmissionError(
            f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}"
        )
    parameters = data.get("parameters") or {}
    if not isinstance(parameters, Mapping):
        raise SubmissionError("'parameters' must be a JSON object")
    forbidden = set(parameters) & _FORBIDDEN_PARAMETERS
    if forbidden:
        raise SubmissionError(
            f"parameter(s) not accepted by the service: "
            f"{', '.join(sorted(forbidden))} (pool width is a server "
            "resource decision)"
        )
    unknown_params = set(parameters) - _parameter_types().keys()
    if unknown_params:
        raise SubmissionError(
            f"unknown parameter(s): {', '.join(sorted(unknown_params))}"
        )
    _check_parameter_types(parameters)
    job_id = data.get("job_id")
    if job_id is not None:
        job_id = str(job_id)
        if not job_id or len(job_id) > _MAX_JOB_ID:
            raise SubmissionError(
                f"job_id must be 1..{_MAX_JOB_ID} characters"
            )
        if any(c.isspace() or c == "/" for c in job_id):
            raise SubmissionError(
                "job_id may not contain whitespace or '/'"
            )

    document: dict[str, Any] = {"algorithm": algorithm}
    if "benchmark" in data:
        document["benchmark"] = str(data["benchmark"])
    else:
        allocation = data.get("allocation") or {}
        if not isinstance(data["assay"], Mapping) or not isinstance(
            allocation, Mapping
        ):
            raise SubmissionError(
                "'assay' and 'allocation' must be JSON objects"
            )
        document["assay"] = dict(data["assay"])
        document["allocation"] = dict(allocation)
    if parameters:
        document["parameters"] = dict(parameters)

    # Digesting runs the full validation stack (assay schema,
    # allocation feasibility, parameter ranges) and yields the content
    # address; benchmark submissions take the cached-fragment fast
    # path.
    digest = _digest_submission(document)
    cache_key = digest if algorithm == "ours" else f"{algorithm}-{digest}"
    return Submission(
        document=document,
        algorithm=algorithm,
        digest=digest,
        cache_key=cache_key,
        job_id=job_id,
    )


def solution_digest(result: Any) -> str:
    """Identity proof of a solution: the digest of its canonical
    ``repro-solution`` document (:func:`repro.core.io.result_to_dict`:
    binding and timing, placement, every routed path, metrics) without
    ``metrics.cpu_time_s`` — cpu time is measurement, not solution."""
    document = result_to_dict(result)
    del document["metrics"]["cpu_time_s"]
    return text_digest(canonical_json(document))


def result_document(result: Any, digest: str) -> dict[str, Any]:
    """The canonical JSON value of one finished synthesis run.

    Everything in it is a pure function of the submission (metrics,
    engines, check verdict) except ``phase_times``/``cpu_time``, which
    record how long *this* execution took — a cache hit replays them
    verbatim from the original run, which is exactly what
    content-addressed result identity means.
    """
    problem = result.problem
    params = problem.parameters
    grid = result.placement.grid
    metrics = result.metrics.as_dict()
    check = None
    if result.check_report is not None:
        check = {
            "mode": params.check,
            "ok": result.check_report.ok,
            "errors": result.check_report.error_count,
        }
    return {
        "schema": RESULT_SCHEMA_VERSION,
        "digest": digest,
        "benchmark": problem.assay.name,
        "algorithm": result.algorithm,
        "seed": params.seed,
        "engines": {
            "placement": params.placement_engine,
            "route": params.route_engine,
        },
        "grid": [grid.width, grid.height],
        "metrics": metrics,
        "solution_digest": solution_digest(result),
        "phase_times": {k: round(v, 6) for k, v in result.phase_times.items()},
        "check": check,
        "summary": result.summary(),
    }
