"""Unit tests for SA transformation operations."""

import random

from repro.place.grid import ChipGrid
from repro.place.moves import random_placement
from repro.place.placement import PlacedComponent, Placement
from tests.oracles.moves import random_move, rotate, swap, translate


def base_placement() -> Placement:
    return Placement(
        ChipGrid(12, 12),
        {
            "a": PlacedComponent("a", 0, 0, 3, 2),
            "b": PlacedComponent("b", 6, 6, 2, 2),
            "c": PlacedComponent("c", 9, 0, 1, 1),
        },
    )


class TestMoves:
    def test_translate_produces_legal_placement(self):
        rng = random.Random(0)
        for _ in range(20):
            moved = translate(base_placement(), rng)
            if moved is not None:
                assert moved.is_legal()

    def test_translate_specific_component(self):
        rng = random.Random(1)
        moved = translate(base_placement(), rng, cid="c")
        if moved is not None:
            assert moved.block("a") == base_placement().block("a")
            assert moved.block("b") == base_placement().block("b")

    def test_swap_exchanges_origins(self):
        rng = random.Random(0)
        swapped = swap(base_placement(), rng, pair=("b", "c"))
        assert swapped is not None
        assert (swapped.block("b").x, swapped.block("b").y) == (9, 0)
        assert (swapped.block("c").x, swapped.block("c").y) == (6, 6)
        assert swapped.is_legal()

    def test_swap_returns_none_when_illegal(self):
        # Swapping a 3x2 block into a corner slot where it collides.
        placement = Placement(
            ChipGrid(6, 6),
            {
                "big": PlacedComponent("big", 0, 0, 3, 2),
                "tiny": PlacedComponent("tiny", 5, 5, 1, 1),
            },
        )
        rng = random.Random(0)
        result = swap(placement, rng, pair=("big", "tiny"))
        # big at (5,5) would leave the grid -> illegal -> None.
        assert result is None

    def test_rotate_transposes(self):
        rng = random.Random(0)
        rotated = rotate(base_placement(), rng, cid="a")
        assert rotated is not None
        assert (rotated.block("a").width, rotated.block("a").height) == (2, 3)

    def test_random_move_eventually_succeeds(self):
        rng = random.Random(7)
        assert random_move(base_placement(), rng) is not None


class TestRandomPlacement:
    def footprints(self):
        return {"a": (3, 2), "b": (2, 2), "c": (1, 1), "d": (2, 1)}

    def test_produces_legal_placement(self):
        rng = random.Random(3)
        placement = random_placement(ChipGrid(12, 12), self.footprints(), rng)
        assert placement is not None
        assert placement.is_legal()
        assert set(placement.components()) == {"a", "b", "c", "d"}

    def test_deterministic_for_seed(self):
        first = random_placement(
            ChipGrid(12, 12), self.footprints(), random.Random(5)
        )
        second = random_placement(
            ChipGrid(12, 12), self.footprints(), random.Random(5)
        )
        assert first is not None and second is not None
        for cid in first.components():
            assert first.block(cid) == second.block(cid)

    def test_impossible_grid_returns_none(self):
        rng = random.Random(0)
        placement = random_placement(ChipGrid(2, 2), self.footprints(), rng)
        assert placement is None

    def test_allows_rotation(self):
        # A 1x4 footprint on a 4x2-ish grid only fits rotated sometimes;
        # just assert the sampler handles non-square footprints.
        rng = random.Random(11)
        placement = random_placement(ChipGrid(8, 8), {"long": (1, 5)}, rng)
        assert placement is not None
        block = placement.block("long")
        assert {block.width, block.height} == {1, 5}
