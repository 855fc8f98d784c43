"""JSON (de)serialisation of sequencing graphs.

Assays round-trip through a small, versioned JSON document so benchmark
definitions can be exported, archived next to experiment results, and fed
back in.  The schema::

    {
      "format": "repro-assay",
      "version": 1,
      "name": "pcr",
      "operations": [
        {"id": "o1", "type": "mix", "duration": 4.0,
         "fluid": {"name": "out(o1)", "diffusion_coefficient": 1e-5,
                    "wash_time_override": null}},
        ...
      ],
      "edges": [["o1", "o3"], ...]
    }
"""

from __future__ import annotations

import json
import reprlib
from collections.abc import Mapping
from pathlib import Path
from typing import Any

from repro.assay.fluids import Fluid
from repro.assay.graph import Operation, OperationType, SequencingGraph
from repro.errors import AssayError

__all__ = [
    "assay_to_dict",
    "assay_from_dict",
    "dump_assay",
    "load_assay",
    "dumps_assay",
    "loads_assay",
]

_FORMAT = "repro-assay"
_VERSION = 1

#: Operation type by its serialised value.  Looking a type up here costs
#: a fraction of calling the enum, which parsing does once per operation.
_OPERATION_TYPE_BY_VALUE = {
    op_type.value: op_type for op_type in OperationType
}


def _fluid_to_dict(fluid: Fluid) -> dict[str, Any]:
    return {
        "name": fluid.name,
        "diffusion_coefficient": fluid.diffusion_coefficient,
        "wash_time_override": fluid.wash_time_override,
    }


def _typed(value: Any, types: tuple[type, ...], what: str) -> Any:
    """*value* when it is an instance of *types*, otherwise an
    :class:`AssayError` naming *what*.  Names and ids are checked because
    they reach error messages and the content digest as they are, where
    a hostile value nested thousands deep would overflow the stack; the
    message shows the value through :func:`reprlib.repr`, which stays
    short and shallow."""
    if not isinstance(value, types):
        raise AssayError(f"{what} has the wrong type: {reprlib.repr(value)}")
    return value


def _fluid_from_dict(data: dict[str, Any]) -> Fluid:
    try:
        return Fluid(
            name=_typed(data["name"], (str,), "fluid name"),
            diffusion_coefficient=data["diffusion_coefficient"],
            wash_time_override=data.get("wash_time_override"),
        )
    except KeyError as missing:
        raise AssayError(f"fluid record missing key {missing}") from None


def assay_to_dict(assay: SequencingGraph) -> dict[str, Any]:
    """Serialise *assay* to a JSON-compatible dictionary."""
    return {
        "format": _FORMAT,
        "version": _VERSION,
        "name": assay.name,
        "operations": [
            {
                "id": op.op_id,
                "type": op.op_type.value,
                "duration": op.duration,
                "fluid": _fluid_to_dict(op.output_fluid),
            }
            for op in assay.operations
        ],
        "edges": [list(edge) for edge in assay.edges],
    }


def assay_from_dict(data: Mapping[str, Any]) -> SequencingGraph:
    """Deserialise a dictionary produced by :func:`assay_to_dict`.

    Raises :class:`AssayError` on schema violations (wrong format marker,
    unsupported version, missing keys, unknown operation types, or a
    name, id or type that is not a string).
    """
    data = _typed(data, (Mapping,), "assay document")
    if data.get("format") != _FORMAT:
        raise AssayError(
            f"not a {_FORMAT} document "
            f"(format={reprlib.repr(data.get('format'))})"
        )
    if data.get("version") != _VERSION:
        raise AssayError(
            f"unsupported version: {reprlib.repr(data.get('version'))}"
        )
    operations = []
    for record in data.get("operations", []):
        try:
            type_value = record["type"]
        except KeyError as missing:
            raise AssayError(f"operation record missing key {missing}") from None
        op_type = (
            _OPERATION_TYPE_BY_VALUE.get(type_value)
            if isinstance(type_value, str)
            else None
        )
        if op_type is None:
            raise AssayError(
                f"unknown operation type: {reprlib.repr(type_value)}"
            )
        try:
            operations.append(
                Operation(
                    op_id=_typed(record["id"], (str,), "operation id"),
                    op_type=op_type,
                    duration=record["duration"],
                    output_fluid=_fluid_from_dict(record["fluid"]),
                )
            )
        except KeyError as missing:
            raise AssayError(f"operation record missing key {missing}") from None
    edges = [tuple(edge) for edge in data.get("edges", [])]
    name = _typed(data.get("name", "assay"), (str,), "assay name")
    return SequencingGraph(name, operations, edges)


def dumps_assay(assay: SequencingGraph, *, indent: int | None = 2) -> str:
    """Serialise *assay* to a JSON string."""
    return json.dumps(assay_to_dict(assay), indent=indent)


def loads_assay(text: str) -> SequencingGraph:
    """Deserialise an assay from a JSON string."""
    return assay_from_dict(json.loads(text))


def dump_assay(assay: SequencingGraph, path: str | Path) -> None:
    """Write *assay* to *path* as JSON."""
    Path(path).write_text(dumps_assay(assay) + "\n", encoding="utf-8")


def load_assay(path: str | Path) -> SequencingGraph:
    """Read an assay previously written by :func:`dump_assay`."""
    return loads_assay(Path(path).read_text(encoding="utf-8"))
