"""Guard test for the incremental engine's inlined move sampler.

:meth:`PlacementWorkspace.move_sampler` draws straight from
``rng.getrandbits`` instead of calling ``rng.choice``, ``rng.randint``
and ``rng.sample(components, 2)``: it copies the rejection loop of
CPython's ``Random._randbelow_with_getrandbits`` (``n.bit_length()``
bits, redrawn while ``>= n``), which is what those three call.  The
seeded parity of every anneal, and every pinned solution digest,
depends on that mirror.  A change to CPython's ``random`` internals
must therefore fail here, loudly, rather than silently re-pin the
digests.  Component counts 1–40 cover both branches of ``sample`` (its
list pool up to 21 items, its rejection set above); grids 9, 16, 17
and 24 cells wide make ``randint``'s range an exact power of two for
some footprints, which exercises the redraw loop.
"""

from __future__ import annotations

import random

import pytest

from repro.place.energy import ConnectionPriorities
from repro.place.grid import ChipGrid
from repro.place.incremental import MOVE_KINDS, PlacementWorkspace
from repro.place.moves import random_placement

GRID = ChipGrid(24, 24)


def reference_sample(workspace: PlacementWorkspace, rng: random.Random):
    """The sampler written with the public ``random`` API and the public
    proposal methods — :func:`repro.place.moves.random_move`'s draws."""
    components = workspace.components()
    for _ in range(20):
        kind = rng.choice(MOVE_KINDS)
        pending = None
        if kind == "translate":
            cid = rng.choice(components)
            block = workspace.block(cid)
            max_x = workspace.grid.width - block.width
            max_y = workspace.grid.height - block.height
            x = rng.randint(0, max_x)
            y = rng.randint(0, max_y)
            pending = workspace.propose_translate(cid, x, y)
        elif kind == "swap":
            if len(components) >= 2:
                cid_a, cid_b = rng.sample(components, 2)
                pending = workspace.propose_swap(cid_a, cid_b)
        else:
            pending = workspace.propose_rotate(rng.choice(components))
        if pending is not None:
            return pending
    return None


def make_workspace(
    count: int, seed: int, grid: ChipGrid = GRID
) -> PlacementWorkspace:
    rng = random.Random(seed)
    footprints = {
        f"C{i:02d}": ((2, 1) if i % 3 == 0 else (1, 1)) for i in range(count)
    }
    placement = random_placement(grid, footprints, rng)
    assert placement is not None
    nets = {
        (f"C{i:02d}", f"C{i + 1:02d}"): 1.0 + i % 4 for i in range(count - 1)
    }
    return PlacementWorkspace(placement, ConnectionPriorities(nets))


def test_random_draws_through_getrandbits():
    mirrored = random.Random._randbelow_with_getrandbits
    assert random.Random._randbelow is mirrored, (
        "Random._randbelow is no longer _randbelow_with_getrandbits: "
        "PlacementWorkspace.move_sampler mirrors that method's getrandbits "
        "rejection loop and must be updated with it"
    )


def assert_draws_match(fast, slow, rng_seed: int, trials: int = 150) -> None:
    rng_fast = random.Random(rng_seed)
    rng_slow = random.Random(rng_seed)
    sample = fast.move_sampler(rng_fast)
    for _ in range(trials):
        got = sample()
        want = reference_sample(slow, rng_slow)
        assert rng_fast.getstate() == rng_slow.getstate()
        if want is None:
            assert got is None
            continue
        assert got is not None
        assert got.kind == want.kind
        assert got.changes == want.changes
        assert got.delta == want.delta
        fast.commit(got)
        slow.commit(want)
    assert fast.snapshot_blocks() == slow.snapshot_blocks()


@pytest.mark.parametrize("count", range(1, 41))
def test_inlined_draws_match_random_api(count):
    assert_draws_match(
        make_workspace(count, seed=count),
        make_workspace(count, seed=count),
        rng_seed=1000 + count,
    )


@pytest.mark.parametrize("count", [1, 2, 9, 22])
@pytest.mark.parametrize("width", [9, 16, 17, 24])
def test_inlined_draws_match_across_grid_widths(width, count):
    grid = ChipGrid(width, 13)
    assert_draws_match(
        make_workspace(count, seed=count, grid=grid),
        make_workspace(count, seed=count, grid=grid),
        rng_seed=2000 + width + count,
        trials=300,
    )

