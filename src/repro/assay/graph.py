"""The sequencing graph ``G(O, E)`` of a bioassay (Section II-C).

A bioassay is a directed acyclic graph whose vertices are *operations*
(mixing, heating, filtering, detection) annotated with execution times and
the fluid each produces, and whose edges are fluidic dependencies: an edge
``(o_j, o_i)`` means the output of ``o_j`` is an input of ``o_i`` and must
be transported (or kept in place) accordingly.

The module provides:

* :class:`OperationType` — the four component-served operation classes used
  by the paper's benchmarks (Table I allocates components in the order
  Mixers, Heaters, Filters, Detectors).
* :class:`Operation` — an immutable vertex.
* :class:`SequencingGraph` — the DAG with topological utilities (levels,
  longest paths, ancestor queries) implemented from scratch; ``networkx``
  is used only in the test-suite as an oracle.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator, Mapping

from repro.assay.fluids import Fluid
from repro.errors import AssayError, GraphCycleError, UnknownOperationError
from repro.units import Seconds

__all__ = ["OperationType", "Operation", "SequencingGraph"]


class OperationType(str, Enum):
    """Operation classes served by dedicated component types.

    The string values double as the component-type names used in reports
    and layouts.
    """

    MIX = "mix"
    HEAT = "heat"
    FILTER = "filter"
    DETECT = "detect"

    @property
    def component_name(self) -> str:
        """Capitalised component-family name (e.g. ``"Mixer"``)."""
        return _COMPONENT_NAMES[self]


_COMPONENT_NAMES: Mapping[OperationType, str] = {
    OperationType.MIX: "Mixer",
    OperationType.HEAT: "Heater",
    OperationType.FILTER: "Filter",
    OperationType.DETECT: "Detector",
}


@dataclass(frozen=True)
class Operation:
    """A vertex of the sequencing graph.

    Parameters
    ----------
    op_id:
        Unique identifier within the assay (e.g. ``"o4"``).
    op_type:
        Which component family can execute the operation.
    duration:
        Execution time in seconds (the per-vertex parameter of Fig. 2(a)).
    output_fluid:
        Fluid produced by the operation.  Defaults to a fast-diffusing
        fluid named after the operation.
    """

    op_id: str
    op_type: OperationType
    duration: Seconds
    output_fluid: Fluid = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if not self.op_id:
            raise AssayError("operation id must be a non-empty string")
        if self.duration < 0:
            raise AssayError(
                f"operation {self.op_id!r}: duration must be non-negative, "
                f"got {self.duration}"
            )
        if self.output_fluid is None:
            object.__setattr__(
                self, "output_fluid", Fluid(name=f"out({self.op_id})")
            )

    @property
    def wash_time(self) -> Seconds:
        """Wash time of this operation's residue (delegates to the fluid)."""
        return self.output_fluid.wash_time


class SequencingGraph:
    """Directed acyclic sequencing graph of a bioassay.

    The graph is immutable after construction: all operations and edges are
    passed to ``__init__`` and validated eagerly (unknown endpoints,
    duplicate ids, self-loops, and cycles are rejected).

    Parameters
    ----------
    name:
        Assay name (used by benchmark registries and reports).
    operations:
        Iterable of :class:`Operation`.
    edges:
        Iterable of ``(parent_id, child_id)`` pairs: the parent's output
        fluid feeds the child.
    """

    def __init__(
        self,
        name: str,
        operations: Iterable[Operation],
        edges: Iterable[tuple[str, str]],
    ) -> None:
        self.name = name
        self._ops: dict[str, Operation] = {}
        for op in operations:
            if op.op_id in self._ops:
                raise AssayError(f"duplicate operation id: {op.op_id!r}")
            self._ops[op.op_id] = op

        self._children: dict[str, list[str]] = {o: [] for o in self._ops}
        self._parents: dict[str, list[str]] = {o: [] for o in self._ops}
        self._edges: list[tuple[str, str]] = []
        seen_edges: set[tuple[str, str]] = set()
        for parent, child in edges:
            if parent not in self._ops:
                raise UnknownOperationError(parent)
            if child not in self._ops:
                raise UnknownOperationError(child)
            if parent == child:
                raise AssayError(f"self-loop on operation {parent!r}")
            if (parent, child) in seen_edges:
                raise AssayError(f"duplicate edge: {parent!r} -> {child!r}")
            seen_edges.add((parent, child))
            self._edges.append((parent, child))
            self._children[parent].append(child)
            self._parents[child].append(parent)

        self._topo_order = self._compute_topological_order()

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._ops)

    def __contains__(self, op_id: str) -> bool:
        return op_id in self._ops

    def __iter__(self) -> Iterator[Operation]:
        """Iterate operations in a deterministic topological order."""
        return (self._ops[op_id] for op_id in self._topo_order)

    def operation(self, op_id: str) -> Operation:
        """Return the operation with the given id.

        Raises :class:`UnknownOperationError` when absent.
        """
        try:
            return self._ops[op_id]
        except KeyError:
            raise UnknownOperationError(op_id) from None

    @property
    def operations(self) -> list[Operation]:
        """All operations, in deterministic topological order."""
        return [self._ops[o] for o in self._topo_order]

    @property
    def operation_ids(self) -> list[str]:
        """All operation ids, in deterministic topological order."""
        return list(self._topo_order)

    @property
    def edges(self) -> list[tuple[str, str]]:
        """All fluidic dependencies as ``(parent, child)`` pairs."""
        return list(self._edges)

    def parents(self, op_id: str) -> list[str]:
        """Ids of the father operations of *op_id* (paper's ``O_p``)."""
        self.operation(op_id)
        return list(self._parents[op_id])

    def children(self, op_id: str) -> list[str]:
        """Ids of the child operations of *op_id*."""
        self.operation(op_id)
        return list(self._children[op_id])

    def sources(self) -> list[str]:
        """Operations with no parents (the assay's entry points)."""
        return [o for o in self._topo_order if not self._parents[o]]

    def sinks(self) -> list[str]:
        """Operations with no children (the assay's results)."""
        return [o for o in self._topo_order if not self._children[o]]

    def count_by_type(self) -> dict[OperationType, int]:
        """Number of operations of each type (types absent map to 0)."""
        counts = {op_type: 0 for op_type in OperationType}
        for op in self._ops.values():
            counts[op.op_type] += 1
        return counts

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def _compute_topological_order(self) -> list[str]:
        """Kahn's algorithm; ties broken lexicographically for determinism.

        Raises :class:`GraphCycleError` when the graph is cyclic.
        """
        indegree = {o: len(self._parents[o]) for o in self._ops}
        ready = sorted(o for o, deg in indegree.items() if deg == 0)
        queue = deque(ready)
        order: list[str] = []
        while queue:
            op_id = queue.popleft()
            order.append(op_id)
            newly_ready = []
            for child in self._children[op_id]:
                indegree[child] -= 1
                if indegree[child] == 0:
                    newly_ready.append(child)
            for child in sorted(newly_ready):
                queue.append(child)
        if len(order) != len(self._ops):
            remaining = {o for o in self._ops if o not in set(order)}
            cycle = self._find_cycle(remaining)
            raise GraphCycleError(cycle)
        return order

    def _find_cycle(self, candidates: set[str]) -> list[str]:
        """Return one concrete cycle among *candidates* for error messages."""
        # Walk forward following only candidate vertices until we revisit
        # one; the walk is finite because every candidate lies on or leads
        # into a cycle.
        start = sorted(candidates)[0]
        path: list[str] = []
        index: dict[str, int] = {}
        node = start
        while node not in index:
            index[node] = len(path)
            path.append(node)
            successors = [c for c in self._children[node] if c in candidates]
            node = sorted(successors)[0]
        return path[index[node]:] + [node]

    def topological_order(self) -> list[str]:
        """Deterministic topological order of all operation ids."""
        return list(self._topo_order)

    def levels(self) -> dict[str, int]:
        """Longest-path depth of each operation from the sources (0-based)."""
        level: dict[str, int] = {}
        for op_id in self._topo_order:
            parent_levels = [level[p] for p in self._parents[op_id]]
            level[op_id] = 1 + max(parent_levels) if parent_levels else 0
        return level

    def ancestors(self, op_id: str) -> set[str]:
        """All transitive predecessors of *op_id* (excluding itself)."""
        self.operation(op_id)
        seen: set[str] = set()
        stack = list(self._parents[op_id])
        while stack:
            node = stack.pop()
            if node not in seen:
                seen.add(node)
                stack.extend(self._parents[node])
        return seen

    def descendants(self, op_id: str) -> set[str]:
        """All transitive successors of *op_id* (excluding itself)."""
        self.operation(op_id)
        seen: set[str] = set()
        stack = list(self._children[op_id])
        while stack:
            node = stack.pop()
            if node not in seen:
                seen.add(node)
                stack.extend(self._children[node])
        return seen

    def critical_path_length(self, transport_time: Seconds = 0.0) -> Seconds:
        """Length of the longest source-to-sink path.

        A path's length is the sum of its operations' durations plus
        *transport_time* per traversed edge — the same measure Algorithm 1
        uses for operation priorities.
        """
        longest: dict[str, Seconds] = {}
        best = 0.0
        for op_id in reversed(self._topo_order):
            op = self._ops[op_id]
            child_tails = [
                transport_time + longest[c] for c in self._children[op_id]
            ]
            longest[op_id] = op.duration + (max(child_tails) if child_tails else 0.0)
            best = max(best, longest[op_id])
        return best

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SequencingGraph(name={self.name!r}, |O|={len(self._ops)}, "
            f"|E|={len(self._edges)})"
        )
