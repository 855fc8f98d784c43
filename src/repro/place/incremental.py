"""Incremental annealing workspace: in-place moves with delta energy.

The straightforward SA move loop builds a brand-new
:class:`~repro.place.placement.Placement` per trial — a full dict copy
in ``with_block``, an all-pairs ``is_legal()`` scan, and an Eq. 3
re-evaluation over *every* net — even though one move touches at most
two components.  :class:`PlacementWorkspace` replaces all three:

* **In-place apply/undo** — block positions live in one mutable dict;
  an accepted move mutates it, a rejected proposal mutates nothing, and
  :meth:`undo` restores the exact pre-move state (including the exact
  energy float, not a drifting ``energy - delta``).
* **O(1)-amortised legality** — a cell-level *occupancy index* maps
  every covered cell (as linear index ``y * width + x``) to its
  component.  A candidate block is checked by scanning only its
  one-cell-inflated rectangle (clearance ``spacing=1`` exactly as
  :meth:`PlacedComponent.overlaps`), so legality cost depends on the
  footprint, not on the number of components.  Below
  :data:`INDEX_SCAN_THRESHOLD` components the index is not even
  maintained — a loop of integer tests over an index-aligned list of
  the other blocks' inflated rectangles is cheaper than hashing the
  candidate's cells.
* **Delta energy** — a per-component *net adjacency* is built once from
  the :class:`~repro.place.energy.ConnectionPriorities`; a proposal
  recomputes only the nets incident to the moved component(s).

Rejected proposals — the annealer's overwhelmingly common case at low
temperature — therefore cost only an inflated-rectangle scan plus the
incident nets, and allocate nothing but the proposal record.

**Exact energy on read.**  :meth:`commit` does not re-evaluate Eq. 3.
It adds the proposal's incident-nets delta to :attr:`estimate` and
widens :attr:`slack`, a bound on ``|estimate - exact|`` that grows by a
fixed per-commit allowance (far above the float rounding one commit can
introduce; see ``_commit_slack``).  The :attr:`energy` property runs a
tight full pass — the *identical* term order and float expressions as
:func:`~repro.place.energy.placement_energy` — only when it is read
while unsynced, so every value it returns is *bit-identical* to a
from-scratch evaluation, never merely "close".  That exactness is what
lets a seeded incremental run make the same accept/reject and
best-so-far decisions as the immutable reference loop (see
:mod:`repro.place.annealing`), while the estimate plus slack lets the
annealer skip the pass whenever the estimate is clearly above its best.

**Identity moves** — a proposal that leaves every component centre
unchanged (the typical case: rotating a square footprint) has an exact
delta of ``0.0`` by construction; :meth:`exact_delta` returns it
without a pass and :meth:`commit` leaves the energy synced.

Legality semantics are *exactly* those of :meth:`Placement.is_legal`:
bounds, the no-full-span rule, and pairwise clearance of one cell.  The
workspace requires — and preserves — a legal placement, so a proposal
only needs to validate the blocks it moves.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from typing import Callable

from repro.errors import PlacementError
from repro.place.energy import ConnectionPriorities, placement_energy
from repro.place.placement import PlacedComponent, Placement

__all__ = ["MOVE_KINDS", "PendingMove", "AppliedMove", "PlacementWorkspace"]

#: Component count from which the cell-level occupancy scan beats the
#: linear loop over blocks.  Below it, checking a candidate against
#: every other block (a handful of integer comparisons each) is cheaper
#: than hashing the ~(w+2)·(h+2) cells of the inflated rectangle; above
#: it, the footprint-bounded scan wins and keeps legality O(1) in the
#: number of components.  Both paths are exact — the choice only
#: affects speed, never decisions.
INDEX_SCAN_THRESHOLD = 12

#: Move kinds in :func:`~repro.place.moves.random_move`'s tuple order.
#: :meth:`PlacementWorkspace.move_sampler` draws the kind as an index
#: into this tuple, exactly as ``rng.choice`` on any length-3 sequence.
MOVE_KINDS = ("translate", "swap", "rotate")

#: Largest population :meth:`random.Random.sample` draws two items from
#: through its list-pool branch (``setsize`` for ``k <= 5``); larger
#: populations take its set-rejection branch.
_SAMPLE_POOL_MAX = 21

#: Absolute part of the per-commit :attr:`PlacementWorkspace.slack`
#: allowance.  The incident-nets delta agrees with the full-evaluation
#: difference within ~1e-11 on the benchmark energies, so this is a
#: wide margin, not a tuned tolerance.
_COMMIT_SLACK = 1e-6


@dataclass(slots=True)
class PendingMove:
    """A legal, not-yet-applied move and its estimated energy delta.

    ``changes`` holds one ``(current_block, new_x, new_y, new_width,
    new_height)`` tuple per moved component; the candidate
    :class:`PlacedComponent` objects are only materialised if the move
    is committed.  ``delta`` sums only the nets incident to the moved
    components; it agrees with the realised energy change within
    ``1e-9``.  Nothing in the workspace has changed yet; pass the
    proposal to :meth:`PlacementWorkspace.apply` (or the annealer's
    no-undo twin :meth:`PlacementWorkspace.commit`) to take it.
    """

    kind: str
    changes: tuple[tuple[PlacedComponent, int, int, int, int], ...]
    delta: float


@dataclass(slots=True)
class AppliedMove:
    """Undo token for one committed move.

    ``delta`` is the *realised* exact energy change (new minus old full
    evaluation), which may differ from the proposal's incident-nets
    estimate by float rounding noise (``<= 1e-9``).
    """

    kind: str
    replacements: tuple[tuple[PlacedComponent, PlacedComponent], ...]
    delta: float
    #: Workspace energy *before* the move — :meth:`undo` restores this
    #: exact float so apply/undo round-trips are bit-exact.
    energy_before: float


class PlacementWorkspace:
    """Mutable placement state for the incremental annealing engine."""

    def __init__(
        self, placement: Placement, priorities: ConnectionPriorities
    ) -> None:
        if not placement.is_legal():
            raise PlacementError(
                "the incremental workspace requires a legal starting placement"
            )
        self.grid = placement.grid
        self.priorities = priorities
        self._width = placement.grid.width
        self._height = placement.grid.height
        self._blocks: dict[str, PlacedComponent] = {
            cid: placement.block(cid) for cid in placement.components()
        }
        self._components: list[str] = sorted(self._blocks)
        self._use_index_scan = len(self._blocks) >= INDEX_SCAN_THRESHOLD
        #: Occupancy index: linear cell index (y * width + x) -> cid.
        #: Maintained only at/above :data:`INDEX_SCAN_THRESHOLD` — below
        #: it :meth:`_fits` never reads the index, so keeping it current
        #: would be pure overhead.
        self._owner: dict[int, str] = {}
        if self._use_index_scan:
            for block in self._blocks.values():
                self._occupy(block)
        #: Centre cache: component index -> centre coordinate, with the
        #: exact ``x + (width - 1) / 2.0`` floats of
        #: :meth:`PlacedComponent.centre` — list indexing is far cheaper
        #: than block attribute access in the energy loops, and the
        #: cached values are bit-identical to freshly computed ones.
        self._idx: dict[str, int] = {
            cid: i for i, cid in enumerate(self._components)
        }
        ordered = [self._blocks[c] for c in self._components]
        self._cx: list[float] = [b.x + (b.width - 1) / 2.0 for b in ordered]
        self._cy: list[float] = [b.y + (b.height - 1) / 2.0 for b in ordered]
        #: Inflated rectangles, index-aligned with the centre cache:
        #: ``(x, x + width + 1, y, y + height + 1)`` per block — the four
        #: bounds the linear clearance test of :meth:`_fits` compares
        #: against.  Kept at every size (one tuple per moved block), so
        #: either legality strategy can run on any workspace.
        self._rects: list[tuple[int, int, int, int]] = [
            _inflated(b) for b in ordered
        ]
        # Validates that every net's endpoints are placed, exactly as
        # a full evaluation would on its first call — and before
        # the index-based net list below assumes the endpoints exist.
        self._energy: float = placement_energy(placement, priorities)
        #: Running energy estimate: the last synced exact energy plus
        #: the incident-nets deltas of the commits since.
        self.estimate: float = self._energy
        #: Bound on ``|estimate - energy|``; ``0.0`` exactly when the
        #: exact energy is synced (the estimate then *is* the energy).
        self.slack: float = 0.0
        #: Net list (index_a, index_b, priority) in the priorities dict's
        #: iteration order — the exact order ``placement_energy`` sums
        #: in, so :meth:`_exact_energy` reproduces its float result bit
        #: for bit.
        self._net_list: tuple[tuple[int, int, float], ...] = tuple(
            (self._idx[cid_a], self._idx[cid_b], priority)
            for (cid_a, cid_b), priority in priorities.priorities.items()
        )
        #: Per-commit slack: the absolute allowance plus a generous
        #: bound on the rounding of one commit's estimate update — a
        #: float sum over the nets errs by about ``n·eps`` of the
        #: largest possible energy (every net at the grid diameter).
        max_energy = (self._width + self._height) * sum(
            abs(priority) for _a, _b, priority in self._net_list
        )
        self._commit_slack = _COMMIT_SLACK + 4.0 * (
            len(self._net_list) + 1
        ) * sys.float_info.epsilon * max_energy
        #: ``(move, exact energy with the move applied)`` from the last
        #: :meth:`exact_delta` — lets the commit of that very move take
        #: the already-computed full pass instead of marking unsynced.
        self._candidate: tuple[PendingMove, float] | None = None
        #: Net adjacency: cid -> ((other_index, priority), ...).
        adjacency: dict[str, list[tuple[int, float]]] = {
            cid: [] for cid in self._blocks
        }
        for (cid_a, cid_b), priority in priorities.priorities.items():
            if cid_a in adjacency and cid_b in adjacency:
                adjacency[cid_a].append((self._idx[cid_b], priority))
                adjacency[cid_b].append((self._idx[cid_a], priority))
        self._incident: dict[str, tuple[tuple[int, float], ...]] = {
            cid: tuple(pairs) for cid, pairs in adjacency.items()
        }

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def components(self) -> list[str]:
        """Sorted component ids (same list object every call — the id
        set never changes, only positions do)."""
        return self._components

    def block(self, cid: str) -> PlacedComponent:
        try:
            return self._blocks[cid]
        except KeyError:
            raise PlacementError(f"component {cid!r} is not placed") from None

    def snapshot_blocks(self) -> dict[str, PlacedComponent]:
        """A copy of the current block assignment (blocks are frozen)."""
        return dict(self._blocks)

    def snapshot(self) -> Placement:
        """An immutable :class:`Placement` of the current state."""
        return Placement(self.grid, self._blocks)

    # ------------------------------------------------------------------
    # Occupancy index
    # ------------------------------------------------------------------
    def _occupy(self, block: PlacedComponent) -> None:
        owner = self._owner
        width = self._width
        cid = block.cid
        x0 = block.x
        for y in range(block.y, block.y + block.height):
            base = y * width + x0
            for offset in range(block.width):
                owner[base + offset] = cid

    def _vacate(self, block: PlacedComponent) -> None:
        owner = self._owner
        width = self._width
        x0 = block.x
        for y in range(block.y, block.y + block.height):
            base = y * width + x0
            for offset in range(block.width):
                del owner[base + offset]

    def _fits(
        self, x: int, y: int, width: int, height: int,
        ignore_a: str, ignore_b: str | None = None,
    ) -> bool:
        """Bounds + no-full-span + clearance for one candidate block.

        Clearance is checked either by scanning the occupancy index over
        the one-cell-inflated rectangle or — below
        :data:`INDEX_SCAN_THRESHOLD` components — by a linear loop over
        the other blocks' inflated rectangles.  Both are equivalent to
        ``not candidate.overlaps(other, spacing=1)`` for every other
        block: two integer-aligned rectangles violate the clearance iff
        the other covers a cell of the candidate inflated by one cell on
        each side.
        """
        grid_w = self._width
        grid_h = self._height
        if x < 0 or y < 0:
            return False
        if x + width > grid_w or y + height > grid_h:
            return False
        if width >= grid_w or height >= grid_h:
            return False
        if not self._use_index_scan:
            x_end = x + width + 1
            y_end = y + height + 1
            rects = self._rects
            idx = self._idx
            skip_a = rects[idx[ignore_a]]
            skip_b = rects[idx[ignore_b]] if ignore_b is not None else None
            for rect in rects:
                if (
                    x_end > rect[0]
                    and rect[1] > x
                    and y_end > rect[2]
                    and rect[3] > y
                    and rect is not skip_a
                    and rect is not skip_b
                ):
                    return False
            return True
        get = self._owner.get
        x0 = x - 1 if x > 0 else 0
        y0 = y - 1 if y > 0 else 0
        x1 = x + width
        if x1 > grid_w - 1:
            x1 = grid_w - 1
        y1 = y + height
        if y1 > grid_h - 1:
            y1 = grid_h - 1
        for cy in range(y0, y1 + 1):
            base = cy * grid_w
            for cell in range(base + x0, base + x1 + 1):
                occupant = get(cell)
                if (
                    occupant is not None
                    and occupant != ignore_a
                    and occupant != ignore_b
                ):
                    return False
        return True

    # ------------------------------------------------------------------
    # Energy
    # ------------------------------------------------------------------
    @property
    def energy(self) -> float:
        """Exact Eq. 3 energy of the current state.

        Bit-identical to ``placement_energy(self.snapshot(), ...)``.
        Reading it while unsynced (``slack > 0``) runs one full pass
        and resyncs :attr:`estimate`; otherwise it costs nothing.
        """
        if self.slack:
            self._energy = self.estimate = self._exact_energy()
            self.slack = 0.0
        return self._energy

    def _exact_energy(self) -> float:
        """Full Eq. 3 pass, bit-identical to ``placement_energy``.

        Iterates the nets in the same order and evaluates the same float
        expressions as ``placement_energy``; the cached centres hold
        exactly the ``x + (width - 1) / 2.0`` floats a fresh evaluation
        would compute.
        """
        cx = self._cx
        cy = self._cy
        total = 0.0
        for ia, ib, priority in self._net_list:
            total += (abs(cx[ia] - cx[ib]) + abs(cy[ia] - cy[ib])) * priority
        return total

    def exact_delta(self, move: PendingMove) -> float:
        """The move's exact energy change (full-evaluation difference).

        Matches ``placement_energy(candidate) - placement_energy(current)``
        bit for bit.  The annealer falls back to this when the
        incident-nets estimate is too close to zero to trust its sign.
        An identity move (every centre unchanged) is exactly ``0.0``
        without a pass.
        """
        cx = self._cx
        cy = self._cy
        idx = self._idx
        centres = []
        identity = True
        for old, x, y, w, h in move.changes:
            i = idx[old.cid]
            nx = x + (w - 1) / 2.0
            ny = y + (h - 1) / 2.0
            if nx != cx[i] or ny != cy[i]:
                identity = False
            centres.append((i, nx, ny))
        if identity:
            return 0.0
        current = self.energy
        # Write the candidate centres into the cache, evaluate, restore.
        saved = [(i, cx[i], cy[i]) for i, _nx, _ny in centres]
        for i, nx, ny in centres:
            cx[i] = nx
            cy[i] = ny
        total = self._exact_energy()
        for i, ox, oy in saved:
            cx[i] = ox
            cy[i] = oy
        self._candidate = (move, total)
        return total - current

    def _delta_single(
        self, cid: str, new_x: int, new_y: int, new_w: int, new_h: int
    ) -> float:
        """Incident-nets energy delta of moving *cid* alone."""
        cx = self._cx
        cy = self._cy
        i = self._idx[cid]
        ox = cx[i]
        oy = cy[i]
        nx = new_x + (new_w - 1) / 2.0
        ny = new_y + (new_h - 1) / 2.0
        new_sum = 0.0
        old_sum = 0.0
        for oi, priority in self._incident[cid]:
            bx = cx[oi]
            by = cy[oi]
            new_sum += (abs(nx - bx) + abs(ny - by)) * priority
            old_sum += (abs(ox - bx) + abs(oy - by)) * priority
        return new_sum - old_sum

    def _delta_pair(
        self,
        old_a: PlacedComponent,
        old_b: PlacedComponent,
        ax: int, ay: int, bx_o: int, by_o: int,
    ) -> float:
        """Incident-nets delta of moving two components at once (swap).

        ``(ax, ay)`` / ``(bx_o, by_o)`` are the new origins of *old_a* /
        *old_b*; footprints are unchanged by a swap.
        """
        cx = self._cx
        cy = self._cy
        idx = self._idx
        ia = idx[old_a.cid]
        ib = idx[old_b.cid]
        oax = cx[ia]
        oay = cy[ia]
        obx = cx[ib]
        oby = cy[ib]
        nax = ax + (old_a.width - 1) / 2.0
        nay = ay + (old_a.height - 1) / 2.0
        nbx = bx_o + (old_b.width - 1) / 2.0
        nby = by_o + (old_b.height - 1) / 2.0
        new_sum = 0.0
        old_sum = 0.0
        for oi, priority in self._incident[old_a.cid]:
            if oi == ib:
                # The net between the moved pair: count it once, with
                # both endpoints at their new positions.
                new_sum += (abs(nax - nbx) + abs(nay - nby)) * priority
                old_sum += (abs(oax - obx) + abs(oay - oby)) * priority
                continue
            bx = cx[oi]
            by = cy[oi]
            new_sum += (abs(nax - bx) + abs(nay - by)) * priority
            old_sum += (abs(oax - bx) + abs(oay - by)) * priority
        for oi, priority in self._incident[old_b.cid]:
            if oi == ia:
                continue
            bx = cx[oi]
            by = cy[oi]
            new_sum += (abs(nbx - bx) + abs(nby - by)) * priority
            old_sum += (abs(obx - bx) + abs(oby - by)) * priority
        return new_sum - old_sum

    # ------------------------------------------------------------------
    # Move proposals (legality + delta; nothing is mutated)
    # ------------------------------------------------------------------
    def propose_translate(self, cid: str, x: int, y: int) -> PendingMove | None:
        """Translate *cid* to origin ``(x, y)``; ``None`` when illegal."""
        return self._translate(self.block(cid), x, y)

    def propose_rotate(self, cid: str) -> PendingMove | None:
        """Transpose *cid*'s footprint in place; ``None`` when illegal."""
        return self._rotate(self.block(cid))

    def propose_swap(self, cid_a: str, cid_b: str) -> PendingMove | None:
        """Exchange the origins of two components; ``None`` when illegal."""
        if cid_a == cid_b:
            return None
        return self._swap(self.block(cid_a), self.block(cid_b))

    def _translate(
        self, old: PlacedComponent, x: int, y: int
    ) -> PendingMove | None:
        width = old.width
        height = old.height
        cid = old.cid
        if not self._fits(x, y, width, height, cid):
            return None
        delta = self._delta_single(cid, x, y, width, height)
        return PendingMove("translate", ((old, x, y, width, height),), delta)

    def _rotate(self, old: PlacedComponent) -> PendingMove | None:
        width = old.height
        height = old.width
        x = old.x
        y = old.y
        cid = old.cid
        if not self._fits(x, y, width, height, cid):
            return None
        delta = self._delta_single(cid, x, y, width, height)
        return PendingMove("rotate", ((old, x, y, width, height),), delta)

    def _swap(
        self, old_a: PlacedComponent, old_b: PlacedComponent
    ) -> PendingMove | None:
        cid_a = old_a.cid
        cid_b = old_b.cid
        if not self._fits(old_b.x, old_b.y, old_a.width, old_a.height, cid_a, cid_b):
            return None
        if not self._fits(old_a.x, old_a.y, old_b.width, old_b.height, cid_a, cid_b):
            return None
        # Clearance of the swapped pair against each other (the scans
        # above ignored both).  Inline inflated-rectangle test ==
        # PlacedComponent.overlaps(spacing=1) on the moved blocks.
        if not (
            old_b.x + old_a.width + 1 <= old_a.x
            or old_a.x + old_b.width + 1 <= old_b.x
            or old_b.y + old_a.height + 1 <= old_a.y
            or old_a.y + old_b.height + 1 <= old_b.y
        ):
            return None
        delta = self._delta_pair(old_a, old_b, old_b.x, old_b.y, old_a.x, old_a.y)
        return PendingMove(
            "swap",
            (
                (old_a, old_b.x, old_b.y, old_a.width, old_a.height),
                (old_b, old_a.x, old_a.y, old_b.width, old_b.height),
            ),
            delta,
        )

    def move_sampler(
        self, rng: random.Random, attempts: int = 20
    ) -> Callable[[], PendingMove | None]:
        """A zero-argument sampler of random legal proposals.

        Incremental twin of :func:`~repro.place.moves.random_move`:
        each call samples up to *attempts* moves and returns the first
        legal one (``None`` when all were illegal).  It consumes *rng*
        draw for draw like that sampler — ``rng.choice``, ``rng.randint``
        and ``rng.sample(components, 2)`` are inlined as the bound
        ``rng._randbelow`` calls CPython makes for them, including both
        of ``sample``'s branches (a guard test pins the equivalence).
        """
        components = self._components
        n = len(components)
        last = components[-1] if components else None
        blocks = self._blocks
        grid_w = self._width
        grid_h = self._height
        translate = self._translate
        swap = self._swap
        rotate = self._rotate
        randbelow = rng._randbelow
        n_kinds = len(MOVE_KINDS)

        def sample() -> PendingMove | None:
            for _ in range(attempts):
                kind = randbelow(n_kinds)
                if kind == 0:  # translate
                    if not n:
                        continue
                    old = blocks[components[randbelow(n)]]
                    max_x = grid_w - old.width
                    max_y = grid_h - old.height
                    if max_x < 0 or max_y < 0:
                        continue
                    pending = translate(
                        old, randbelow(max_x + 1), randbelow(max_y + 1)
                    )
                elif kind == 1:  # swap
                    if n < 2:
                        continue
                    first = randbelow(n)
                    if n <= _SAMPLE_POOL_MAX:
                        second = randbelow(n - 1)
                        cid_b = last if second == first else components[second]
                    else:
                        second = randbelow(n)
                        while second == first:
                            second = randbelow(n)
                        cid_b = components[second]
                    pending = swap(blocks[components[first]], blocks[cid_b])
                else:  # rotate
                    if not n:
                        continue
                    pending = rotate(blocks[components[randbelow(n)]])
                if pending is not None:
                    return pending
            return None

        return sample

    # ------------------------------------------------------------------
    # Apply / undo
    # ------------------------------------------------------------------
    def commit(self, move: PendingMove) -> None:
        """Commit a proposal without building an undo token.

        The annealer's fast path — identical state transition to
        :meth:`apply`, minus the :class:`AppliedMove` record.  No full
        pass runs here: the estimate absorbs the proposal's delta and
        the exact energy is recomputed when :attr:`energy` is next read.
        Unchanged blocks (identity moves) are left in place.
        """
        blocks = self._blocks
        changes = move.changes
        for old, _x, _y, _w, _h in changes:
            if blocks.get(old.cid) is not old:
                raise PlacementError(
                    f"stale move: block of {old.cid!r} changed since the "
                    "proposal was made"
                )
        candidate = self._candidate
        self._candidate = None
        idx = self._idx
        cx = self._cx
        cy = self._cy
        rects = self._rects
        moved = []
        for old, x, y, w, h in changes:
            if x == old.x and y == old.y and w == old.width and h == old.height:
                continue
            cid = old.cid
            new = PlacedComponent(cid, x, y, w, h)
            blocks[cid] = new
            moved.append((old, new))
            i = idx[cid]
            cx[i] = x + (w - 1) / 2.0
            cy[i] = y + (h - 1) / 2.0
            rects[i] = (x, x + w + 1, y, y + h + 1)
        if not moved:
            return
        if self._use_index_scan:
            # Vacate every old block before occupying any new one: a
            # swap's new blocks cover the pair's old cells.
            for old, _new in moved:
                self._vacate(old)
            for _old, new in moved:
                self._occupy(new)
        if candidate is not None and candidate[0] is move:
            self._energy = self.estimate = candidate[1]
            self.slack = 0.0
        else:
            self.estimate += move.delta
            self.slack += self._commit_slack

    def apply(self, move: PendingMove) -> AppliedMove:
        """Commit a proposal; returns the undo token.

        Reads the exact energy before and after the commit, so the
        token's ``delta`` is the realised full-evaluation change.
        """
        energy_before = self.energy
        self.commit(move)
        replacements = tuple(
            (old, self._blocks[old.cid]) for old, _x, _y, _w, _h in move.changes
        )
        return AppliedMove(
            move.kind, replacements, self.energy - energy_before, energy_before
        )

    def undo(self, applied: AppliedMove) -> None:
        """Reverse a committed move, restoring the exact prior energy."""
        blocks = self._blocks
        for _old, new in applied.replacements:
            if blocks.get(new.cid) is not new:
                raise PlacementError(
                    f"cannot undo: block of {new.cid!r} changed after the move"
                )
        self._candidate = None
        use_index = self._use_index_scan
        if use_index:
            for _old, new in applied.replacements:
                self._vacate(new)
        idx = self._idx
        cx = self._cx
        cy = self._cy
        for old, _new in applied.replacements:
            if use_index:
                self._occupy(old)
            blocks[old.cid] = old
            i = idx[old.cid]
            cx[i] = old.x + (old.width - 1) / 2.0
            cy[i] = old.y + (old.height - 1) / 2.0
            self._rects[i] = _inflated(old)
        self._energy = self.estimate = applied.energy_before
        self.slack = 0.0

    # ------------------------------------------------------------------
    # Invariant checks (test / paranoid-mode hooks)
    # ------------------------------------------------------------------
    def check_consistency(self, tolerance: float = 0.0) -> float:
        """Assert index + energy invariants against the from-scratch oracle.

        Raises :class:`PlacementError` when the occupancy index or the
        rectangle list disagrees with the blocks, the placement is
        illegal, the full pass differs from a ``placement_energy``
        recompute by more than *tolerance* (default: must be bit-exact),
        or the estimate has left its guard band (``|estimate - exact| <
        slack``, or equality while synced).  Reads nothing lazily, so it
        never syncs the energy.  Returns the recomputed energy.
        """
        if self._use_index_scan:
            expected_owner: dict[int, str] = {}
            for cid, block in self._blocks.items():
                for cell in block.cells():
                    expected_owner[cell.y * self._width + cell.x] = cid
            if expected_owner != self._owner:
                raise PlacementError("occupancy index out of sync with blocks")
        elif self._owner:
            raise PlacementError(
                "occupancy index should stay empty below the scan threshold"
            )
        if self._rects != [_inflated(self._blocks[c]) for c in self._components]:
            raise PlacementError("rectangle list out of sync with blocks")
        for cid, block in self._blocks.items():
            i = self._idx[cid]
            if (
                self._cx[i] != block.x + (block.width - 1) / 2.0
                or self._cy[i] != block.y + (block.height - 1) / 2.0
            ):
                raise PlacementError(
                    f"centre cache out of sync for component {cid!r}"
                )
        placement = self.snapshot()
        if not placement.is_legal():
            raise PlacementError(
                "workspace holds an illegal placement: "
                + "; ".join(placement.violations())
            )
        exact = placement_energy(placement, self.priorities)
        full_pass = self._exact_energy()
        if abs(exact - full_pass) > tolerance:
            raise PlacementError(
                f"incremental energy drifted: full pass {full_pass!r} "
                f"vs recomputed {exact!r}"
            )
        if self.slack:
            if not abs(self.estimate - exact) < self.slack:
                raise PlacementError(
                    f"energy estimate {self.estimate!r} left its guard band "
                    f"{self.slack!r} around {exact!r}"
                )
        elif abs(exact - self._energy) > tolerance or self.estimate != self._energy:
            raise PlacementError(
                f"incremental energy drifted: maintained {self._energy!r} "
                f"(estimate {self.estimate!r}) vs recomputed {exact!r}"
            )
        return exact


def _inflated(block: PlacedComponent) -> tuple[int, int, int, int]:
    """``(x, x + width + 1, y, y + height + 1)`` of *block*."""
    return (block.x, block.x + block.width + 1, block.y, block.y + block.height + 1)
