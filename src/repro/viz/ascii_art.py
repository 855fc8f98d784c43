"""ASCII rendering of placements, routings, and schedules.

Terminal-friendly views used by the examples and by debugging sessions:

* :func:`render_placement` — the chip grid with component blocks;
* :func:`render_routing` — the grid overlaid with routed channel cells;
* :func:`render_schedule` — a Gantt-style per-component timeline.
"""

from __future__ import annotations

from repro.place.grid import Cell
from repro.place.placement import Placement
from repro.route.router import RoutingResult
from repro.schedule.schedule import Schedule

__all__ = ["render_placement", "render_routing", "render_schedule"]

#: Glyph assigned to each component family (first letter of the id).
_EMPTY = "."
_CHANNEL = "+"


def _component_glyphs(placement: Placement) -> dict[str, str]:
    """One distinguishing glyph per component: family letter, lowercase
    for even indices to keep neighbours distinguishable."""
    glyphs = {}
    for index, cid in enumerate(placement.components()):
        letter = cid[0]
        glyphs[cid] = letter.upper() if index % 2 == 0 else letter.lower()
    return glyphs


def render_placement(placement: Placement, legend: bool = True) -> str:
    """Draw the placement as a character grid (origin top-left)."""
    grid = placement.grid
    canvas = [[_EMPTY] * grid.width for _ in range(grid.height)]
    glyphs = _component_glyphs(placement)
    for cid in placement.components():
        block = placement.block(cid)
        for cell in block.cells():
            canvas[cell.y][cell.x] = glyphs[cid]
    lines = ["".join(row) for row in canvas]
    if legend:
        lines.append("")
        for cid in placement.components():
            block = placement.block(cid)
            lines.append(
                f"{glyphs[cid]} = {cid} @ ({block.x},{block.y}) "
                f"{block.width}x{block.height}"
            )
    return "\n".join(lines)


def render_routing(routing: RoutingResult, legend: bool = True) -> str:
    """Draw the placement with every routed channel cell marked ``+``."""
    placement = routing.placement
    grid = placement.grid
    canvas = [[_EMPTY] * grid.width for _ in range(grid.height)]
    for cell in routing.used_cells():
        canvas[cell.y][cell.x] = _CHANNEL
    glyphs = _component_glyphs(placement)
    for cid in placement.components():
        for cell in placement.block(cid).cells():
            canvas[cell.y][cell.x] = glyphs[cid]
    lines = ["".join(row) for row in canvas]
    if legend:
        lines.append("")
        lines.append(
            f"channels: {routing.total_length_cells} cells "
            f"({routing.total_length_mm():.0f} mm), "
            f"{len(routing.paths)} transports"
        )
    return "\n".join(lines)


def render_schedule(schedule: Schedule, width: int = 60) -> str:
    """Gantt-style timeline: one row per component, ``#`` while busy.

    The timeline is scaled to *width* characters; operation ids are
    listed per component below the chart.
    """
    makespan = schedule.makespan
    if makespan <= 0:
        return "(empty schedule)"
    scale = width / makespan
    lines = [f"0{' ' * (width - len(str(makespan)) - 1)}{makespan:g}s"]
    details = []
    for cid, _ in schedule.allocation.iter_components():
        records = schedule.operations_on(cid)
        row = [" "] * width
        for record in records:
            lo = int(record.start * scale)
            hi = max(lo + 1, int(record.end * scale))
            for i in range(lo, min(hi, width)):
                row[i] = "#"
        lines.append(f"{cid:>10s} |{''.join(row)}|")
        if records:
            ops = ", ".join(
                f"{r.op_id}@{r.start:g}-{r.end:g}" for r in records
            )
            details.append(f"{cid}: {ops}")
    return "\n".join(lines + [""] + details)
