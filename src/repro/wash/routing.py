"""Wash-flow access planning.

Washing a dirty channel cell means pushing buffer from a wash inlet,
through the cell, out to a waste outlet (Hu et al. [9], the paper's
wash-time reference).  The scheduler/ router account for the wash
*durations*; this module plans the wash *flows* on the finished layout:

* wash inlet and waste outlet sit on the chip boundary (configurable
  corners by default);
* for every wash event of the plan, a buffer path inlet → dirty cell →
  outlet is computed over free cells (component blocks remain
  obstacles; other channel cells may be traversed — buffer is clean);
* the report lists unreachable cells (none, for layouts produced by our
  placers — asserted in tests) and the extra channel length the wash
  network needs beyond the transport network.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.place.grid import Cell
from repro.route.router import RoutingResult
from repro.units import Millimetres

__all__ = ["WashAccessReport", "plan_wash_access"]


@dataclass(frozen=True)
class WashAccess:
    """Buffer path serving one dirty cell."""

    cell: Cell
    path: tuple[Cell, ...]  # inlet ... cell ... outlet

    @property
    def length_cells(self) -> int:
        return len(self.path)


@dataclass
class WashAccessReport:
    """Wash-flow coverage of a routed layout."""

    inlet: Cell
    outlet: Cell
    accesses: list[WashAccess] = field(default_factory=list)
    unreachable: list[Cell] = field(default_factory=list)

    @property
    def full_coverage(self) -> bool:
        """Whether every dirty cell can be flushed."""
        return not self.unreachable

    def extra_network_cells(self, routing: RoutingResult) -> int:
        """Cells the wash network uses beyond the transport network."""
        used = routing.used_cells()
        wash_cells = {
            cell for access in self.accesses for cell in access.path
        }
        return len(wash_cells - used)

    def extra_network_mm(self, routing: RoutingResult) -> Millimetres:
        return routing.placement.grid.length_mm(
            self.extra_network_cells(routing)
        )


def _bfs_tree(
    start: Cell, passable, grid
) -> dict[Cell, Cell | None]:
    """Parent map of a BFS from *start* over passable on-grid cells."""
    parents: dict[Cell, Cell | None] = {start: None}
    queue = deque([start])
    while queue:
        cell = queue.popleft()
        for neighbour in cell.neighbours():
            if neighbour in parents:
                continue
            if not grid.contains(neighbour) or not passable(neighbour):
                continue
            parents[neighbour] = cell
            queue.append(neighbour)
    return parents


def _walk(parents: dict[Cell, Cell | None], cell: Cell) -> list[Cell]:
    path = [cell]
    while parents[path[-1]] is not None:
        path.append(parents[path[-1]])  # type: ignore[arg-type]
    path.reverse()
    return path


def plan_wash_access(
    routing: RoutingResult,
    inlet: Cell | None = None,
    outlet: Cell | None = None,
) -> WashAccessReport:
    """Plan buffer flows flushing every dirty (used) channel cell.

    *inlet* defaults to the top-left free boundary cell and *outlet* to
    the bottom-right one.  Raises :class:`ValueError` when no free
    boundary cell exists (a fully walled chip cannot be washed at all).
    """
    grid = routing.placement.grid
    obstacles = routing.placement.occupied_cells()

    def passable(cell: Cell) -> bool:
        return cell not in obstacles

    boundary = [
        cell
        for cell in grid.cells()
        if (
            cell.x in (0, grid.width - 1) or cell.y in (0, grid.height - 1)
        )
        and passable(cell)
    ]
    if not boundary:
        raise ValueError("no free boundary cell: the chip cannot be washed")
    if inlet is None:
        inlet = boundary[0]
    if outlet is None:
        outlet = boundary[-1]

    from_inlet = _bfs_tree(inlet, passable, grid)
    from_outlet = _bfs_tree(outlet, passable, grid)

    report = WashAccessReport(inlet=inlet, outlet=outlet)
    for cell in sorted(routing.used_cells()):
        if cell not in from_inlet or cell not in from_outlet:
            report.unreachable.append(cell)
            continue
        inbound = _walk(from_inlet, cell)
        outbound = _walk(from_outlet, cell)
        outbound.reverse()  # cell ... outlet
        path = tuple(inbound + outbound[1:])
        report.accesses.append(WashAccess(cell=cell, path=path))
    return report
