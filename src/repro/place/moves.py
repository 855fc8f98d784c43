"""Random legal placements for the simulated-annealing placer.

Algorithm 2 (line 1) starts the anneal from a random legal placement.
The moves that perturb it (line 4) are drawn and judged in place by
:meth:`~repro.place.incremental.PlacementWorkspace.anneal_step`.
"""

from __future__ import annotations

import random

from repro.place.placement import Placement

__all__ = ["random_placement"]


def random_placement(
    grid, footprints: dict[str, tuple[int, int]], rng: random.Random,
    attempts_per_component: int = 200,
    whole_placement_attempts: int = 25,
) -> Placement | None:
    """Sample a random legal placement (Algorithm 2 line 1).

    Components are placed largest-first — the classic trick that makes
    rejection sampling succeed on tight grids — and the assembled
    placement must pass the full legality check (including the
    no-walled-in-component rule).  Returns ``None`` when no legal
    placement is found within the attempt budgets.
    """
    for _ in range(whole_placement_attempts):
        candidate = _random_placement_once(
            grid, footprints, rng, attempts_per_component
        )
        if candidate is not None and candidate.is_legal():
            return candidate
    return None


def _random_placement_once(
    grid, footprints: dict[str, tuple[int, int]], rng: random.Random,
    attempts_per_component: int,
) -> Placement | None:
    from repro.place.placement import PlacedComponent  # local to avoid cycle

    order = sorted(
        footprints.items(), key=lambda item: (-item[1][0] * item[1][1], item[0])
    )
    blocks: dict[str, PlacedComponent] = {}
    for cid, (width, height) in order:
        placed = None
        for _ in range(attempts_per_component):
            if rng.random() < 0.5:
                width, height = height, width
            max_x = grid.width - width
            max_y = grid.height - height
            if max_x < 0 or max_y < 0:
                continue
            candidate = PlacedComponent(
                cid, rng.randint(0, max_x), rng.randint(0, max_y), width, height
            )
            if all(not candidate.overlaps(b, spacing=1) for b in blocks.values()):
                placed = candidate
                break
        if placed is None:
            return None
        blocks[cid] = placed
    return Placement(grid, blocks)
