"""Transformation operations of the reference SA move loop: an oracle.

Algorithm 2 (line 4) perturbs the current placement with "a series of
transformation operations, such as rotation, translation, etc.".  Three
moves are implemented on immutable placements:

* **translate** — relocate one component to a random legal origin;
* **swap** — exchange the origins of two components (legal only when
  both fit at each other's origin without overlap);
* **rotate** — transpose one component's footprint in place.

Each move either returns a new legal :class:`~repro.place.placement.Placement`
or ``None`` when the sampled move is illegal — the annealer simply
resamples.  The production kernel,
:meth:`~repro.place.incremental.PlacementWorkspace.anneal_step`, draws
and judges its moves in place, consuming the RNG exactly as
:func:`random_move` does.
"""

from __future__ import annotations

import random

from repro.place.placement import Placement

__all__ = ["random_move", "translate", "swap", "rotate"]


def _legal_or_none(candidate: Placement) -> Placement | None:
    return candidate if candidate.is_legal() else None


def translate(
    placement: Placement, rng: random.Random, cid: str | None = None
) -> Placement | None:
    """Move one (random) component to a uniformly sampled origin."""
    components = placement.components()
    if not components:
        return None
    cid = cid if cid is not None else rng.choice(components)
    block = placement.block(cid)
    max_x = placement.grid.width - block.width
    max_y = placement.grid.height - block.height
    if max_x < 0 or max_y < 0:
        return None
    new_block = block.moved_to(rng.randint(0, max_x), rng.randint(0, max_y))
    return _legal_or_none(placement.with_block(new_block))


def swap(
    placement: Placement,
    rng: random.Random,
    pair: tuple[str, str] | None = None,
) -> Placement | None:
    """Exchange the origins of two (random) components."""
    components = placement.components()
    if len(components) < 2:
        return None
    cid_a, cid_b = pair if pair is not None else rng.sample(components, 2)
    block_a = placement.block(cid_a)
    block_b = placement.block(cid_b)
    candidate = placement.with_blocks(
        block_a.moved_to(block_b.x, block_b.y),
        block_b.moved_to(block_a.x, block_a.y),
    )
    return _legal_or_none(candidate)


def rotate(
    placement: Placement, rng: random.Random, cid: str | None = None
) -> Placement | None:
    """Transpose one (random) component's footprint in place."""
    components = placement.components()
    if not components:
        return None
    cid = cid if cid is not None else rng.choice(components)
    rotated = placement.block(cid).rotated()
    return _legal_or_none(placement.with_block(rotated))


_MOVES = (translate, swap, rotate)


def random_move(
    placement: Placement, rng: random.Random, attempts: int = 20
) -> Placement | None:
    """Sample moves until one is legal (or give up after *attempts*)."""
    for _ in range(attempts):
        move = rng.choice(_MOVES)
        candidate = move(placement, rng)
        if candidate is not None:
            return candidate
    return None
