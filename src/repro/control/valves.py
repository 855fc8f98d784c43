"""Control-layer estimation: valves derived from a routed flow layer.

The paper's conclusion names control-logic optimisation (Wang et al.,
ASP-DAC 2017 [13]) as future work; this subpackage implements a working
version of that layer on top of our routed layouts.

Model
-----
Flow in a channel network is steered by micro-valves.  A valve is needed
wherever flow must be selectively blocked:

* at every **junction cell** — a routed cell with three or more routed
  neighbours (a channel fork), one valve per incident channel arm;
* at every **component port** in use — to seal the component off from
  the network while it executes.

For each transportation task, the valves on its path (and the two ports
it uses) must be **open** while every other valve incident to its path's
junctions must be **closed**; valves not touching the path are don't-
care.  :func:`build_control_model` derives the valve set and the
per-task activation patterns from a :class:`~repro.route.router.RoutingResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.place.grid import Cell
from repro.route.router import RoutingResult

__all__ = ["Valve", "ValveState", "TaskPattern", "ControlModel", "build_control_model"]


class ValveState(str, Enum):
    """Required state of a valve during one transportation task."""

    OPEN = "open"
    CLOSED = "closed"
    DONT_CARE = "dont_care"


@dataclass(frozen=True)
class Valve:
    """A valve sits on the edge between two adjacent routed cells, or
    between a port cell and its component ("port valves").

    The identity is the canonical (sorted) pair of end points, a port
    valve using the component id as its second end.
    """

    end_a: tuple[int, int]
    end_b: tuple[int, int] | str

    @classmethod
    def between(cls, a: Cell, b: Cell) -> "Valve":
        pa, pb = (a.x, a.y), (b.x, b.y)
        if pb < pa:
            pa, pb = pb, pa
        return cls(pa, pb)

    @classmethod
    def port(cls, cell: Cell, component_id: str) -> "Valve":
        return cls((cell.x, cell.y), component_id)


@dataclass(frozen=True)
class TaskPattern:
    """Valve states required while one transportation task flows."""

    task_id: str
    start: float
    states: dict[Valve, ValveState]

    def state_of(self, valve: Valve) -> ValveState:
        return self.states.get(valve, ValveState.DONT_CARE)


@dataclass
class ControlModel:
    """The derived control layer: all valves plus per-task patterns."""

    valves: list[Valve] = field(default_factory=list)
    patterns: list[TaskPattern] = field(default_factory=list)

    @property
    def valve_count(self) -> int:
        return len(self.valves)

    def control_pins_direct(self) -> int:
        """Pins with one dedicated control line per valve."""
        return self.valve_count

    def control_pins_multiplexed(self) -> int:
        """Pins with a fully multiplexed control scheme (binary
        addressing, the asymptotic bound the control-layer literature
        targets): ``ceil(log2(n)) + 1`` lines for ``n`` valves."""
        import math

        if self.valve_count == 0:
            return 0
        return math.ceil(math.log2(self.valve_count)) + 1


def _routed_adjacency(routing: RoutingResult) -> dict[Cell, list[Cell]]:
    used = routing.used_cells()
    adjacency: dict[Cell, list[Cell]] = {}
    for cell in used:
        adjacency[cell] = [n for n in cell.neighbours() if n in used]
    return adjacency


def build_control_model(routing: RoutingResult) -> ControlModel:
    """Derive the control layer from a routed flow layer.

    Valves are created on every channel arm of every junction cell and
    on every (component, port) attachment actually used by some path.
    Each task's pattern opens the valves along its own path and closes
    the other arms of the junctions it crosses.
    """
    adjacency = _routed_adjacency(routing)
    junction_cells = {cell for cell, nbrs in adjacency.items() if len(nbrs) >= 3}

    valves: set[Valve] = set()
    for cell in junction_cells:
        for neighbour in adjacency[cell]:
            valves.add(Valve.between(cell, neighbour))

    # Port valves for every (port cell, component) attachment in use.
    port_valves: dict[tuple[Cell, str], Valve] = {}
    for path in routing.paths:
        for cell, cid in (
            (path.cells[0], path.task.src_component),
            (path.cells[-1], path.task.dst_component),
        ):
            key = (cell, cid)
            if key not in port_valves:
                valve = Valve.port(cell, cid)
                port_valves[key] = valve
                valves.add(valve)

    patterns: list[TaskPattern] = []
    for path in routing.paths:
        states: dict[Valve, ValveState] = {}
        path_cells = set(path.cells)
        # Open the junction arms the path actually traverses...
        for a, b in zip(path.cells, path.cells[1:]):
            if a in junction_cells or b in junction_cells:
                states[Valve.between(a, b)] = ValveState.OPEN
        # ...close every other arm of the junctions on the path.
        for cell in path.cells:
            if cell not in junction_cells:
                continue
            for neighbour in adjacency[cell]:
                valve = Valve.between(cell, neighbour)
                if valve not in states:
                    states[valve] = ValveState.CLOSED
        # Open the two port valves; close other ports touching the path.
        for cell, cid in (
            (path.cells[0], path.task.src_component),
            (path.cells[-1], path.task.dst_component),
        ):
            states[port_valves[(cell, cid)]] = ValveState.OPEN
        for (cell, cid), valve in port_valves.items():
            if cell in path_cells and valve not in states:
                states[valve] = ValveState.CLOSED
        patterns.append(
            TaskPattern(
                task_id=path.task.task_id,
                start=path.slot.start,
                states=states,
            )
        )
    patterns.sort(key=lambda p: (p.start, p.task_id))
    ordered_valves = sorted(valves, key=lambda v: (v.end_a, str(v.end_b)))
    return ControlModel(valves=ordered_valves, patterns=patterns)
