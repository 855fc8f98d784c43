"""Content addressing of synthesis problems.

The storage-aware synthesis flow is deterministic for a fixed
``(assay, allocation, parameters)`` triple, which makes its inputs
perfectly *content-addressable*: two problems with equal digests are
guaranteed to synthesize bit-identically, so a digest can stand in for
"the same run" everywhere — the run ledger groups records by it for
regression baselines (:mod:`repro.obs.ledger`), and the synthesis
service (:mod:`repro.serve`) uses it as the key of its result cache so
identical submissions are served from cache instead of re-synthesized.

The digest is SHA-256 over the canonical JSON (sorted keys, compact
separators) of the assay document, the allocation tuple, the grid, the
:data:`DIGEST_VERSION` stamp, and every synthesis parameter except
those in :data:`DIGEST_EXCLUDED_PARAMETERS`: ``jobs``, because
parallelism redistributes the same deterministic work without changing
any answer, and the parameters that have a single legal value
(``placement_engine``, ``route_engine``, ``seed_derivation``), which
cannot change an answer either.  Neither may split otherwise-identical
runs into different digests.

The version stamp moves whenever the digest document changes shape, so
ledger history from before a change is recognisably incomparable rather
than silently different.

The top-level keys of the document sort as ``allocation``, ``assay``,
``digest_version``, ``grid``, ``parameters``, so everything up to the
grid depends on the (assay, allocation) pair alone.
:func:`problem_digest` hashes that prefix once per pair, keeps the
SHA-256 state in a side table weakly keyed by the assay graph (graphs
are immutable, and a hash state is never pickled with one), and per
call copies the state and hashes only the grid and the parameters, so
a call costs the same on a 7- or a 200-operation assay.
:func:`problem_document` stays the definition: the digest equals
``text_digest(canonical_json(problem_document(problem)))`` byte for
byte, which the tests check on generated problems.

This module is the single home of that definition; the service digests
submissions through :func:`problem_digest` like every other caller.  It
originally lived in :mod:`repro.obs.ledger`; the byte-level
canonicalisation is pinned by tests so digests written by older ledgers
stay comparable forever.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields as dataclass_fields
from functools import cache
from typing import Any
from weakref import WeakKeyDictionary

__all__ = [
    "DIGEST_EXCLUDED_PARAMETERS",
    "DIGEST_VERSION",
    "canonical_json",
    "problem_document",
    "problem_digest",
    "text_digest",
]

#: Parameters excluded from the digest: ``jobs`` only redistributes the
#: same deterministic work across processes, and the rest each accept
#: exactly one value.
DIGEST_EXCLUDED_PARAMETERS = frozenset(
    {"jobs", "placement_engine", "route_engine", "seed_derivation"}
)

#: Version of the digest document (the ``digest_version`` key).
DIGEST_VERSION = 2


#: The encoder ``json.dumps(sort_keys=True, separators=(",", ":"))``
#: builds per call; it keeps no state between calls.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_json(document: Any) -> str:
    """The one true serialisation digests are computed over.

    Sorted keys and compact separators make the text a pure function of
    the document's value; round-tripping through :func:`json.loads` and
    back reproduces it byte for byte (floats serialise via ``repr``,
    which round-trips exactly).
    """
    return _CANONICAL.encode(document)


def text_digest(text: str | bytes) -> str:
    """SHA-256 hex digest of a string (UTF-8) or byte string."""
    if isinstance(text, str):
        text = text.encode("utf-8")
    return hashlib.sha256(text).hexdigest()


@cache
def _parameter_names(parameters_type: type) -> tuple[str, ...]:
    """The digested field names of a parameters dataclass."""
    return tuple(
        f.name
        for f in dataclass_fields(parameters_type)
        if f.name not in DIGEST_EXCLUDED_PARAMETERS
    )


def _parameters_document(parameters: Any) -> dict[str, Any]:
    # Every parameter field is a scalar, so plain attribute access
    # serialises identically to ``dataclasses.asdict`` without its
    # per-field deepcopy.
    return {
        name: getattr(parameters, name)
        for name in _parameter_names(type(parameters))
    }


def _grid_document(grid: Any) -> list[Any] | None:
    return None if grid is None else [grid.width, grid.height, grid.pitch_mm]


def problem_document(problem: Any) -> dict[str, Any]:
    """The canonical JSON-compatible document a problem digests to."""
    from repro.assay.io import assay_to_dict

    return {
        "assay": assay_to_dict(problem.assay),
        "allocation": list(problem.allocation.as_tuple()),
        "digest_version": DIGEST_VERSION,
        "parameters": _parameters_document(problem.parameters),
        "grid": _grid_document(problem.grid),
    }


#: Assay graph -> allocation -> SHA-256 state over the canonical text
#: of the digest document up to the value of ``"grid"``.
_PREFIXES: WeakKeyDictionary[Any, dict[Any, Any]] = WeakKeyDictionary()


def _prefix_state(assay: Any, allocation: Any) -> Any:
    """A fresh copy of the memoised hash state of *assay* on
    *allocation*."""
    by_allocation = _PREFIXES.get(assay)
    if by_allocation is None:
        by_allocation = _PREFIXES.setdefault(assay, {})
    state = by_allocation.get(allocation)
    if state is None:
        from repro.assay.io import assay_to_dict

        state = hashlib.sha256(
            (
                '{"allocation":%s,"assay":%s,"digest_version":%d,"grid":'
                % (
                    canonical_json(list(allocation.as_tuple())),
                    canonical_json(assay_to_dict(assay)),
                    DIGEST_VERSION,
                )
            ).encode("utf-8")
        )
        by_allocation[allocation] = state
    return state.copy()


def problem_digest(problem: Any) -> str:
    """SHA-256 content address of (assay, allocation, parameters-jobs).

    Two problems share a digest exactly when the pipeline is guaranteed
    to produce bit-identical results for them, so ledger records and
    cached service results with equal digests are directly
    interchangeable.
    """
    state = _prefix_state(problem.assay, problem.allocation)
    grid = problem.grid
    state.update(
        (
            '%s,"parameters":%s}'
            % (
                "null" if grid is None else canonical_json(_grid_document(grid)),
                canonical_json(_parameters_document(problem.parameters)),
            )
        ).encode("utf-8")
    )
    return state.hexdigest()
