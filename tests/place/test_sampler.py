"""Guard tests for the annealing kernel's inlined move draws.

:meth:`PlacementWorkspace.anneal_step` draws straight from
``rng.getrandbits`` instead of calling ``rng.choice``, ``rng.randint``
and ``rng.sample(components, 2)``: it copies the rejection loop of
CPython's ``Random._randbelow_with_getrandbits`` (``n.bit_length()``
bits, redrawn while ``>= n``), which is what those three call.  The
seeded parity of every anneal, and every pinned solution digest,
depends on that mirror.  A change to CPython's ``random`` internals
must therefore fail here, loudly, rather than silently re-pin the
digests.

Each case anneals one instance twice on a short schedule, through
:func:`~repro.place.annealing.anneal_placement` and through the oracle
:func:`tests.oracles.annealing.anneal_reference`, which draws with the
public ``random`` API via :func:`tests.oracles.moves.random_move`, and
asserts the two walks are identical.  Component counts 0–40 cover no
legal move at all, no swap, and both branches of ``sample`` (its list
pool up to 21 items, its rejection set above); grids 9, 16, 17 and 24
cells wide make ``randint``'s range an exact power of two for some
footprints, which exercises the redraw loop.
"""

from __future__ import annotations

import random

import pytest

from repro.place.annealing import AnnealingParameters, anneal_placement
from repro.place.energy import ConnectionPriorities
from repro.place.grid import ChipGrid
from tests.oracles.annealing import anneal_reference

GRID = ChipGrid(24, 24)

#: 11 temperature steps of 40 trials each.
FAST = AnnealingParameters(
    initial_temperature=200.0,
    min_temperature=1.0,
    cooling_rate=0.6,
    iterations_per_temperature=40,
)


def instance(count: int) -> tuple[dict, ConnectionPriorities]:
    footprints = {
        f"C{i:02d}": ((2, 1) if i % 3 == 0 else (1, 1)) for i in range(count)
    }
    nets = {
        (f"C{i:02d}", f"C{i + 1:02d}"): 1.0 + i % 4 for i in range(count - 1)
    }
    return footprints, ConnectionPriorities(nets)


def assert_same_anneal(count: int, seed: int, grid: ChipGrid = GRID) -> None:
    footprints, priorities = instance(count)
    kernel = anneal_placement(grid, footprints, priorities, FAST, seed=seed)
    oracle = anneal_reference(grid, footprints, priorities, FAST, seed=seed)
    assert kernel.energy == oracle.energy
    assert kernel.initial_energy == oracle.initial_energy
    assert kernel.energy_trace == oracle.energy_trace
    assert kernel.accepted_moves == oracle.accepted_moves
    assert kernel.trials == oracle.trials
    assert kernel.placement.blocks() == oracle.placement.blocks()


def test_random_draws_through_getrandbits():
    mirrored = random.Random._randbelow_with_getrandbits
    assert random.Random._randbelow is mirrored, (
        "Random._randbelow is no longer _randbelow_with_getrandbits: "
        "the annealing kernel PlacementWorkspace.anneal_step mirrors that "
        "method's getrandbits rejection loop and must be updated with it"
    )


@pytest.mark.parametrize("count", range(0, 41))
def test_inlined_draws_match_random_api(count):
    assert_same_anneal(count, seed=1000 + count)


@pytest.mark.parametrize("count", [0, 1, 2, 9, 22])
@pytest.mark.parametrize("width", [9, 16, 17, 24])
def test_inlined_draws_match_across_grid_widths(width, count):
    assert_same_anneal(
        count, seed=2000 + width + count, grid=ChipGrid(width, 13)
    )

