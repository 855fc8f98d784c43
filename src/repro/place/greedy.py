"""Construction-by-correction placement — the baseline's placer.

Section V describes BA's physical stage as "generating an initial
solution and then correct[ing] those unsatisfactory component
positions/routing paths sequentially".  The placer here mirrors that:

1. **Construction** — components are spread row-major over a regular
   lattice covering the whole chip (largest family first), the natural
   first-cut layout with generous channel corridors.
2. **Correction** — repeated pairwise-swap passes on a plain wirelength
   objective (unit net priorities — BA is oblivious to Eq. 4) until a
   pass yields no improvement or the pass budget is exhausted.

The result is deterministic, fast, and reasonable — but unaware of
transport concurrency and wash costs, which is exactly the handicap the
paper's comparison measures.
"""

from __future__ import annotations

import math

from repro.errors import PlacementError
from repro.place.energy import wirelength_energy
from repro.place.grid import ChipGrid
from repro.place.placement import PlacedComponent, Placement

__all__ = ["construct_placement", "correct_placement", "greedy_placement"]


def construct_placement(
    grid: ChipGrid, footprints: dict[str, tuple[int, int]]
) -> Placement:
    """Spread all components on a regular lattice across the chip.

    The construction step of construction-by-correction: components are
    laid out row-major on a near-square array of lattice sites spaced
    evenly over the whole grid — the natural first-cut layout a designer
    sketches, with generous channel corridors everywhere.  The correction
    step then swaps components to shorten the busiest connections.
    """
    order = sorted(
        footprints.items(), key=lambda item: (-item[1][0] * item[1][1], item[0])
    )
    count = len(order)
    if count == 0:
        raise PlacementError("no components to place")
    max_w = max(width for _, (width, _h) in order)
    max_h = max(height for _, (_w, height) in order)

    def fits(cols: int) -> bool:
        rws = math.ceil(count / cols)
        return (
            cols * (max_w + 1) - 1 <= grid.width
            and rws * (max_h + 1) - 1 <= grid.height
        )

    ideal = math.ceil(math.sqrt(count))
    columns = next(
        (
            cols
            for offset in range(count)
            for cols in (ideal - offset, ideal + offset)
            if 1 <= cols <= count and fits(cols)
        ),
        None,
    )
    if columns is None:
        raise PlacementError(
            f"grid {grid.width}x{grid.height} too small for a lattice of "
            f"{count} components"
        )
    rows = math.ceil(count / columns)
    # Spread lattice sites evenly; at least one clearance cell remains
    # between neighbouring blocks by the size check above.
    x_positions = _spread(grid.width, max_w, columns)
    y_positions = _spread(grid.height, max_h, rows)
    blocks: dict[str, PlacedComponent] = {}
    for index, (cid, (width, height)) in enumerate(order):
        row, col = divmod(index, columns)
        blocks[cid] = PlacedComponent(
            cid, x_positions[col], y_positions[row], width, height
        )
    placement = Placement(grid, blocks)
    if not placement.is_legal():  # pragma: no cover - sizes checked above
        raise PlacementError(
            "internal error: lattice construction produced an illegal placement"
        )
    return placement


def _spread(extent: int, block: int, count: int) -> list[int]:
    """Evenly spaced origins for *count* blocks of size *block* in [0, extent)."""
    if count == 1:
        return [(extent - block) // 2]
    usable = extent - block
    return [round(i * usable / (count - 1)) for i in range(count)]


def correct_placement(
    placement: Placement,
    nets: list[tuple[str, str]],
    max_passes: int = 10,
) -> Placement:
    """Greedy pairwise-swap correction on plain wirelength.

    Swaps two blocks' origins whenever that is legal and strictly reduces
    Σ mdis over *nets*; repeats until a full pass makes no improvement.
    """
    current = placement
    current_cost = wirelength_energy(current, nets)
    components = current.components()
    for _ in range(max_passes):
        improved = False
        for i, cid_a in enumerate(components):
            for cid_b in components[i + 1:]:
                block_a = current.block(cid_a)
                block_b = current.block(cid_b)
                candidate = current.with_block(
                    block_a.moved_to(block_b.x, block_b.y)
                ).with_block(block_b.moved_to(block_a.x, block_a.y))
                if not candidate.is_legal():
                    continue
                cost = wirelength_energy(candidate, nets)
                if cost < current_cost - 1e-12:
                    current, current_cost = candidate, cost
                    improved = True
        if not improved:
            break
    return current


def greedy_placement(
    grid: ChipGrid,
    footprints: dict[str, tuple[int, int]],
    nets: list[tuple[str, str]],
) -> Placement:
    """Full BA placement: construction followed by correction."""
    return correct_placement(construct_placement(grid, footprints), nets)
