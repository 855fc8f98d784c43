"""SVG export of synthesized chip layouts (Fig. 4-style drawings).

:func:`layout_to_svg` draws the placement grid, component blocks
(coloured per family), and routed channels, producing a standalone SVG
document string.  No third-party dependency is used — the SVG is
assembled from string fragments with proper escaping of the few dynamic
attributes involved.
"""

from __future__ import annotations

from xml.sax.saxutils import escape

from repro.place.placement import Placement
from repro.route.router import RoutingResult

__all__ = ["layout_to_svg", "placement_to_svg", "congestion_to_svg", "schedule_to_svg"]

#: Pixels per grid cell in the generated drawing.
_CELL_PX = 24

_FAMILY_COLOURS = {
    "Mixer": "#7aa6c2",
    "Heater": "#d49a6a",
    "Filter": "#9a77b8",
    "Detector": "#79b791",
}
_CHANNEL_COLOUR = "#c94c4c"
_GRID_COLOUR = "#dddddd"


def _family_of(cid: str) -> str:
    return cid.rstrip("0123456789")


def _header(width_cells: int, height_cells: int) -> list[str]:
    width = width_cells * _CELL_PX
    height = height_cells * _CELL_PX
    return [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]


def _grid_lines(width_cells: int, height_cells: int) -> list[str]:
    width = width_cells * _CELL_PX
    height = height_cells * _CELL_PX
    parts = []
    for x in range(width_cells + 1):
        parts.append(
            f'<line x1="{x * _CELL_PX}" y1="0" x2="{x * _CELL_PX}" '
            f'y2="{height}" stroke="{_GRID_COLOUR}" stroke-width="1"/>'
        )
    for y in range(height_cells + 1):
        parts.append(
            f'<line x1="0" y1="{y * _CELL_PX}" x2="{width}" '
            f'y2="{y * _CELL_PX}" stroke="{_GRID_COLOUR}" stroke-width="1"/>'
        )
    return parts


def _component_rects(placement: Placement) -> list[str]:
    parts = []
    for cid in placement.components():
        block = placement.block(cid)
        colour = _FAMILY_COLOURS.get(_family_of(cid), "#999999")
        x = block.x * _CELL_PX
        y = block.y * _CELL_PX
        parts.append(
            f'<rect x="{x}" y="{y}" width="{block.width * _CELL_PX}" '
            f'height="{block.height * _CELL_PX}" fill="{colour}" '
            'stroke="#333333" stroke-width="2" rx="4"/>'
        )
        cx = x + block.width * _CELL_PX / 2
        cy = y + block.height * _CELL_PX / 2
        parts.append(
            f'<text x="{cx}" y="{cy}" font-size="10" text-anchor="middle" '
            f'dominant-baseline="middle" font-family="sans-serif">'
            f"{escape(cid)}</text>"
        )
    return parts


def placement_to_svg(placement: Placement) -> str:
    """Render a placement alone (no channels) as an SVG document."""
    grid = placement.grid
    parts = _header(grid.width, grid.height)
    parts.extend(_grid_lines(grid.width, grid.height))
    parts.extend(_component_rects(placement))
    parts.append("</svg>")
    return "\n".join(parts)


def congestion_to_svg(routing: RoutingResult) -> str:
    """Render a channel-congestion heat map.

    Channel cells are shaded by how many tasks crossed them (white →
    deep red), with component blocks drawn on top.  Complements
    :func:`repro.analysis.congestion.analyse_congestion`.
    """
    placement = routing.placement
    grid = placement.grid
    parts = _header(grid.width, grid.height)
    parts.extend(_grid_lines(grid.width, grid.height))
    history = routing.usage_history()
    peak = max((len(usages) for usages in history.values()), default=1)
    for cell, usages in sorted(history.items()):
        intensity = len(usages) / peak
        # White (0) to the channel red (1).
        red = int(0xC9 + (0xFF - 0xC9) * (1 - intensity))
        green = int(0x4C + (0xFF - 0x4C) * (1 - intensity))
        blue = int(0x4C + (0xFF - 0x4C) * (1 - intensity))
        parts.append(
            f'<rect x="{cell.x * _CELL_PX + 2}" y="{cell.y * _CELL_PX + 2}" '
            f'width="{_CELL_PX - 4}" height="{_CELL_PX - 4}" '
            f'fill="#{red:02x}{green:02x}{blue:02x}" rx="3">'
            f"<title>{len(usages)} task(s)</title></rect>"
        )
    parts.extend(_component_rects(placement))
    parts.append("</svg>")
    return "\n".join(parts)


def schedule_to_svg(schedule, width_px: int = 720, row_px: int = 28) -> str:
    """Render a Gantt chart of a schedule (one row per component).

    Execution bars are coloured per component family; the time axis is
    scaled to *width_px*.
    """
    components = [cid for cid, _ in schedule.allocation.iter_components()]
    makespan = max(schedule.makespan, 1e-9)
    label_px = 90
    chart_px = width_px - label_px
    height = (len(components) + 1) * row_px
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width_px}" '
        f'height="{height}" viewBox="0 0 {width_px} {height}">',
        f'<rect width="{width_px}" height="{height}" fill="white"/>',
    ]
    for row, cid in enumerate(components):
        y = row * row_px
        colour = _FAMILY_COLOURS.get(_family_of(cid), "#999999")
        parts.append(
            f'<text x="4" y="{y + row_px * 0.65}" font-size="11" '
            f'font-family="sans-serif">{escape(cid)}</text>'
        )
        for record in schedule.operations_on(cid):
            x = label_px + record.start / makespan * chart_px
            bar = max(2.0, record.duration / makespan * chart_px)
            parts.append(
                f'<rect x="{x:.1f}" y="{y + 4}" width="{bar:.1f}" '
                f'height="{row_px - 8}" fill="{colour}" stroke="#333" rx="2">'
                f"<title>{escape(record.op_id)}: {record.start:g}-"
                f"{record.end:g}s</title></rect>"
            )
    axis_y = len(components) * row_px + row_px * 0.6
    parts.append(
        f'<text x="{label_px}" y="{axis_y}" font-size="10" '
        'font-family="sans-serif">0s</text>'
    )
    parts.append(
        f'<text x="{width_px - 40}" y="{axis_y}" font-size="10" '
        f'font-family="sans-serif">{makespan:g}s</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts)


def layout_to_svg(routing: RoutingResult) -> str:
    """Render a routed layout: channels below, component blocks on top."""
    placement = routing.placement
    grid = placement.grid
    parts = _header(grid.width, grid.height)
    parts.extend(_grid_lines(grid.width, grid.height))
    inset = 4
    for cell in sorted(routing.used_cells()):
        parts.append(
            f'<rect x="{cell.x * _CELL_PX + inset}" '
            f'y="{cell.y * _CELL_PX + inset}" '
            f'width="{_CELL_PX - 2 * inset}" height="{_CELL_PX - 2 * inset}" '
            f'fill="{_CHANNEL_COLOUR}" opacity="0.7" rx="3"/>'
        )
    parts.extend(_component_rects(placement))
    parts.append("</svg>")
    return "\n".join(parts)
