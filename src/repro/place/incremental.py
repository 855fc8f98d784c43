"""Incremental annealing workspace: in-place moves with delta energy.

The straightforward SA move loop builds a brand-new
:class:`~repro.place.placement.Placement` per trial — a full dict copy
in ``with_block``, an all-pairs ``is_legal()`` scan, and an Eq. 3
re-evaluation over *every* net — even though one move touches at most
two components.  :class:`PlacementWorkspace` replaces all three:

* **In-place apply/undo** — block positions live in index-aligned
  integer lists (one slot per sorted component id); an accepted move
  overwrites a few slots, a rejected proposal mutates nothing, and
  :meth:`undo` restores the exact pre-move state (including the exact
  energy float, not a drifting ``energy - delta``).  Frozen
  :class:`~repro.place.placement.PlacedComponent` blocks are built only
  when asked for: by :meth:`block`, :meth:`snapshot_blocks` (the
  annealer's best-so-far snapshots and final placement) and
  :meth:`apply`'s undo token — never per committed move.
* **Bitset legality** — the grid's occupancy is one Python ``int``
  with a padded row stride ``S = width + 2``: cell ``(x, y)`` is bit
  ``(y + 1)·S + x + 1``, so the one-cell border around the grid is a
  ring of always-clear bits.  Each component keeps its footprint mask.
  A candidate origin ``(x, y)`` with footprint ``(w, h)`` is legal when
  it is in bounds (no full span) and ``(occ ^ moved masks) &
  (keepout << x + y·S)`` is zero, where ``keepout`` is the footprint's
  one-cell-inflated rectangle at the origin — clearance ``spacing=1``
  exactly as :meth:`PlacedComponent.overlaps`.  The padding keeps an
  inflated rectangle at the grid edge from wrapping into the next row.
  One footprint/keep-out pair per distinct footprint is all the table
  there is, so a check costs two big-int operations whatever the
  component count, and memory is a few masks the size of the grid.
* **Delta energy** — a per-component *net adjacency* is built once from
  the :class:`~repro.place.energy.ConnectionPriorities`; a proposal
  recomputes only the nets incident to the moved component(s).

Rejected proposals — the annealer's overwhelmingly common case at low
temperature — therefore cost a mask test plus the incident nets, and
allocate nothing but the proposal record.  :meth:`move_sampler`, the
annealer's proposal source, inlines draw, legality and delta into one
closure; the public ``propose_*`` methods are the plain formulation it
is tested against.

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

    ``changes`` holds one ``(cid, new_x, new_y, new_width, new_height)``
    tuple per moved component.  ``delta`` sums only the nets incident
    to the moved components; it agrees with the realised energy change
    within ``1e-9``.  ``stamp`` is the workspace's state stamp when the
    move was proposed: any later change of the workspace makes the
    proposal stale.  Nothing in the workspace has changed yet; pass the
    proposal to :meth:`PlacementWorkspace.apply` (or the annealer's
    no-undo twin :meth:`PlacementWorkspace.commit`) to take it.
    """

    kind: str
    changes: tuple[tuple[str, int, int, int, int], ...]
    delta: float
    stamp: int


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
        #: Padded row stride of the occupancy bitset.
        self._stride = self._width + 2
        self._components: list[str] = placement.components()
        self._idx: dict[str, int] = {
            cid: i for i, cid in enumerate(self._components)
        }
        ordered = [placement.block(cid) for cid in self._components]
        #: ``(w, h) -> (footprint mask, keep-out mask, transposed
        #: keep-out mask)`` at shift 0, for every footprint a component
        #: can take (both orientations).
        self._shapes: dict[tuple[int, int], tuple[int, int, int]] = {}
        for b in ordered:
            for w, h in ((b.width, b.height), (b.height, b.width)):
                if (w, h) not in self._shapes:
                    self._shapes[w, h] = (
                        self._rectangle(1, 1, w, h),
                        self._rectangle(0, 0, w + 2, h + 2),
                        self._rectangle(0, 0, h + 2, w + 2),
                    )
        # Index-aligned block state.  The centre cache holds the exact
        # ``x + (width - 1) / 2.0`` floats of PlacedComponent.centre()
        # — list indexing is far cheaper than block attribute access in
        # the energy loops, and the values are bit-identical.
        n = len(ordered)
        self._xs: list[int] = [0] * n
        self._ys: list[int] = [0] * n
        self._ws: list[int] = [0] * n
        self._hs: list[int] = [0] * n
        self._cx: list[float] = [0.0] * n
        self._cy: list[float] = [0.0] * n
        self._masks: list[int] = [0] * n
        self._footprint: list[int] = [0] * n
        self._keepout: list[int] = [0] * n
        self._keepout_t: list[int] = [0] * n
        #: Occupancy bitset: the OR (and, blocks being disjoint, the
        #: XOR) of every block's mask.
        self._occ = 0
        for i, b in enumerate(ordered):
            self._place(i, b.x, b.y, b.width, b.height)
        #: Bumped by every state change; a proposal carrying an older
        #: stamp is stale.
        self._stamp = 0
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
        #: Net adjacency, index-aligned: ((other_index, priority), ...).
        adjacency: list[list[tuple[int, float]]] = [[] for _ in range(n)]
        for ia, ib, priority in self._net_list:
            adjacency[ia].append((ib, priority))
            adjacency[ib].append((ia, priority))
        self._incident: list[tuple[tuple[int, float], ...]] = [
            tuple(pairs) for pairs in adjacency
        ]

    def _rectangle(self, x: int, y: int, width: int, height: int) -> int:
        """Mask of a *width* × *height* rectangle whose top-left bit is
        padded column *x*, padded row *y*."""
        row = ((1 << width) - 1) << x
        stride = self._stride
        mask = 0
        for r in range(y, y + height):
            mask |= row << (r * stride)
        return mask

    def _place(self, i: int, x: int, y: int, w: int, h: int) -> None:
        """Move component *i* to origin ``(x, y)`` with footprint
        ``(w, h)``, keeping every index-aligned structure in step."""
        footprint, keepout, keepout_t = self._shapes[w, h]
        mask = footprint << (x + y * self._stride)
        # Old masks lie in ``occ`` and new ones are disjoint from the
        # rest, so XOR-ing both in — in any order across a swap's two
        # components — leaves the union of the new blocks.
        self._occ ^= self._masks[i] ^ mask
        self._masks[i] = mask
        self._footprint[i] = footprint
        self._keepout[i] = keepout
        self._keepout_t[i] = keepout_t
        self._xs[i] = x
        self._ys[i] = y
        self._ws[i] = w
        self._hs[i] = h
        self._cx[i] = x + (w - 1) / 2.0
        self._cy[i] = y + (h - 1) / 2.0

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def components(self) -> list[str]:
        """Sorted component ids (same list object every call — the id
        set never changes, only positions do)."""
        return self._components

    def _index(self, cid: str) -> int:
        try:
            return self._idx[cid]
        except KeyError:
            raise PlacementError(f"component {cid!r} is not placed") from None

    def block(self, cid: str) -> PlacedComponent:
        i = self._index(cid)
        return PlacedComponent(
            cid, self._xs[i], self._ys[i], self._ws[i], self._hs[i]
        )

    def snapshot_blocks(self) -> dict[str, PlacedComponent]:
        """The current block assignment as fresh frozen blocks."""
        xs, ys, ws, hs = self._xs, self._ys, self._ws, self._hs
        return {
            cid: PlacedComponent(cid, xs[i], ys[i], ws[i], hs[i])
            for i, cid in enumerate(self._components)
        }

    def snapshot(self) -> Placement:
        """An immutable :class:`Placement` of the current state."""
        return Placement(self.grid, self.snapshot_blocks())

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
        for cid, x, y, w, h in move.changes:
            i = idx[cid]
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

    # ------------------------------------------------------------------
    # Move proposals (legality + delta; nothing is mutated)
    # ------------------------------------------------------------------
    def propose_translate(self, cid: str, x: int, y: int) -> PendingMove | None:
        """Translate *cid* to origin ``(x, y)``; ``None`` when illegal."""
        i = self._index(cid)
        return self._propose(
            "translate", ((i, x, y, self._ws[i], self._hs[i]),)
        )

    def propose_rotate(self, cid: str) -> PendingMove | None:
        """Transpose *cid*'s footprint in place; ``None`` when illegal."""
        i = self._index(cid)
        return self._propose(
            "rotate", ((i, self._xs[i], self._ys[i], self._hs[i], self._ws[i]),)
        )

    def propose_swap(self, cid_a: str, cid_b: str) -> PendingMove | None:
        """Exchange the origins of two components; ``None`` when illegal."""
        a = self._index(cid_a)
        b = self._index(cid_b)
        if a == b:
            return None
        xs, ys, ws, hs = self._xs, self._ys, self._ws, self._hs
        return self._propose(
            "swap",
            (
                (a, xs[b], ys[b], ws[a], hs[a]),
                (b, xs[a], ys[a], ws[b], hs[b]),
            ),
        )

    def _propose(
        self, kind: str, moves: tuple[tuple[int, int, int, int, int], ...]
    ) -> PendingMove | None:
        """Legality and incident-nets delta of moving the components
        ``moves`` names, each to ``(i, x, y, w, h)``.

        Each moved block is tested against the unmoved blocks' bits and
        the moved blocks already placed before it.  The delta sums the
        incident nets component by component, counting a net between
        two moved components once, with both at their new centres.
        """
        width = self._width
        height = self._height
        stride = self._stride
        rest = self._occ
        for i, _x, _y, _w, _h in moves:
            rest ^= self._masks[i]
        for _i, x, y, w, h in moves:
            if (
                x < 0 or y < 0 or x + w > width or y + h > height
                or w >= width or h >= height
            ):
                return None
            footprint, keepout, _t = self._shapes[w, h]
            shift = x + y * stride
            if rest & (keepout << shift):
                return None
            rest |= footprint << shift
        cx = self._cx
        cy = self._cy
        new_centre = {i: (x + (w - 1) / 2.0, y + (h - 1) / 2.0)
                      for i, x, y, w, h in moves}
        new_sum = 0.0
        old_sum = 0.0
        done: set[int] = set()
        for i, _x, _y, _w, _h in moves:
            nx, ny = new_centre[i]
            ox = cx[i]
            oy = cy[i]
            for oi, priority in self._incident[i]:
                if oi in done:
                    continue
                if oi in new_centre:
                    bx, by = new_centre[oi]
                    new_sum += (abs(nx - bx) + abs(ny - by)) * priority
                    old_sum += (abs(ox - cx[oi]) + abs(oy - cy[oi])) * priority
                    continue
                bx = cx[oi]
                by = cy[oi]
                new_sum += (abs(nx - bx) + abs(ny - by)) * priority
                old_sum += (abs(ox - bx) + abs(oy - by)) * priority
            done.add(i)
        components = self._components
        return PendingMove(
            kind,
            tuple((components[i], x, y, w, h) for i, x, y, w, h in moves),
            new_sum - old_sum,
            self._stamp,
        )

    def move_sampler(
        self, rng: random.Random, attempts: int = 20
    ) -> Callable[[], PendingMove | None]:
        """A zero-argument sampler of random legal proposals.

        Incremental twin of :func:`~repro.place.moves.random_move`:
        each call samples up to *attempts* moves and returns the first
        legal one (``None`` when all were illegal).  It consumes *rng*
        draw for draw like that sampler: ``rng.choice``, ``rng.randint``
        and ``rng.sample(components, 2)`` are inlined as the
        ``rng.getrandbits`` rejection loops of CPython's
        ``_randbelow_with_getrandbits`` (``k = n.bit_length()`` bits,
        redrawn while ``>= n``), including both of ``sample``'s
        branches; ``tests/place/test_sampler.py`` pins the mirror.
        Each proposal's legality and delta are inlined too, equal to
        :meth:`propose_translate`, :meth:`propose_swap` and
        :meth:`propose_rotate`.

        A translate draws its origin from ``[0, width - w]`` without the
        reference sampler's empty-range check: the workspace's blocks
        never span the full grid, so the range is never empty.
        """
        components = self._components
        n = len(components)
        n_bits = n.bit_length()
        pool_branch = n <= _SAMPLE_POOL_MAX
        last = n - 1
        last_bits = last.bit_length()
        width = self._width
        height = self._height
        x_span = width + 1
        y_span = height + 1
        bit_length = [k.bit_length() for k in range(max(x_span, y_span))]
        stride = self._stride
        xs = self._xs
        ys = self._ys
        ws = self._ws
        hs = self._hs
        cx = self._cx
        cy = self._cy
        masks = self._masks
        footprints = self._footprint
        keepout = self._keepout
        keepout_t = self._keepout_t
        incident = self._incident
        getrandbits = rng.getrandbits
        workspace = self

        def sample() -> PendingMove | None:
            for _ in range(attempts):
                # An index into MOVE_KINDS: 3.bit_length() == 2 bits.
                kind = getrandbits(2)
                while kind == 3:
                    kind = getrandbits(2)
                if kind == 1:  # swap
                    if n < 2:
                        continue
                    a = getrandbits(n_bits)
                    while a >= n:
                        a = getrandbits(n_bits)
                    if pool_branch:
                        b = getrandbits(last_bits)
                        while b >= last:
                            b = getrandbits(last_bits)
                        if b == a:
                            b = last
                    else:
                        b = getrandbits(n_bits)
                        while b >= n or b == a:
                            b = getrandbits(n_bits)
                    ax = xs[a]
                    ay = ys[a]
                    aw = ws[a]
                    ah = hs[a]
                    bx = xs[b]
                    by = ys[b]
                    bw = ws[b]
                    bh = hs[b]
                    if (
                        bx + aw > width or by + ah > height
                        or ax + bw > width or ay + bh > height
                    ):
                        continue
                    rest = workspace._occ ^ masks[a] ^ masks[b]
                    a_shift = bx + by * stride
                    if rest & (keepout[a] << a_shift):
                        continue
                    rest |= footprints[a] << a_shift
                    if rest & (keepout[b] << (ax + ay * stride)):
                        continue
                    oax = cx[a]
                    oay = cy[a]
                    obx = cx[b]
                    oby = cy[b]
                    nax = bx + (aw - 1) / 2.0
                    nay = by + (ah - 1) / 2.0
                    nbx = ax + (bw - 1) / 2.0
                    nby = ay + (bh - 1) / 2.0
                    new_sum = 0.0
                    old_sum = 0.0
                    for oi, priority in incident[a]:
                        if oi == b:
                            # The net between the moved pair: count it
                            # once, with both ends at their new centres.
                            new_sum += (abs(nax - nbx) + abs(nay - nby)) * priority
                            old_sum += (abs(oax - obx) + abs(oay - oby)) * priority
                            continue
                        ox = cx[oi]
                        oy = cy[oi]
                        new_sum += (abs(nax - ox) + abs(nay - oy)) * priority
                        old_sum += (abs(oax - ox) + abs(oay - oy)) * priority
                    for oi, priority in incident[b]:
                        if oi == a:
                            continue
                        ox = cx[oi]
                        oy = cy[oi]
                        new_sum += (abs(nbx - ox) + abs(nby - oy)) * priority
                        old_sum += (abs(obx - ox) + abs(oby - oy)) * priority
                    return PendingMove(
                        "swap",
                        (
                            (components[a], bx, by, aw, ah),
                            (components[b], ax, ay, bw, bh),
                        ),
                        new_sum - old_sum,
                        workspace._stamp,
                    )
                if not n:
                    continue
                i = getrandbits(n_bits)
                while i >= n:
                    i = getrandbits(n_bits)
                if kind == 0:  # translate
                    w = ws[i]
                    h = hs[i]
                    span = x_span - w
                    k = bit_length[span]
                    x = getrandbits(k)
                    while x >= span:
                        x = getrandbits(k)
                    span = y_span - h
                    k = bit_length[span]
                    y = getrandbits(k)
                    while y >= span:
                        y = getrandbits(k)
                    if (workspace._occ ^ masks[i]) & (
                        keepout[i] << (x + y * stride)
                    ):
                        continue
                    name = "translate"
                else:  # rotate
                    w = hs[i]
                    h = ws[i]
                    x = xs[i]
                    y = ys[i]
                    if (
                        w >= width or h >= height
                        or x + w > width or y + h > height
                    ):
                        continue
                    if (workspace._occ ^ masks[i]) & (
                        keepout_t[i] << (x + y * stride)
                    ):
                        continue
                    name = "rotate"
                ox = cx[i]
                oy = cy[i]
                nx = x + (w - 1) / 2.0
                ny = y + (h - 1) / 2.0
                new_sum = 0.0
                old_sum = 0.0
                for oi, priority in incident[i]:
                    bx = cx[oi]
                    by = cy[oi]
                    new_sum += (abs(nx - bx) + abs(ny - by)) * priority
                    old_sum += (abs(ox - bx) + abs(oy - by)) * priority
                return PendingMove(
                    name,
                    ((components[i], x, y, w, h),),
                    new_sum - old_sum,
                    workspace._stamp,
                )
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
        Unchanged components (identity moves) are left in place.
        """
        if move.stamp != self._stamp:
            raise PlacementError(
                f"stale move: the workspace changed since the {move.kind} "
                f"of {move.changes[0][0]!r} was proposed"
            )
        candidate = self._candidate
        self._candidate = None
        idx = self._idx
        xs = self._xs
        ys = self._ys
        ws = self._ws
        hs = self._hs
        moved = False
        for cid, x, y, w, h in move.changes:
            i = idx[cid]
            if x == xs[i] and y == ys[i] and w == ws[i] and h == hs[i]:
                continue
            self._place(i, x, y, w, h)
            moved = True
        if not moved:
            return
        self._stamp += 1
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
        before = [self.block(change[0]) for change in move.changes]
        self.commit(move)
        replacements = tuple((old, self.block(old.cid)) for old in before)
        return AppliedMove(
            move.kind, replacements, self.energy - energy_before, energy_before
        )

    def undo(self, applied: AppliedMove) -> None:
        """Reverse a committed move, restoring the exact prior energy."""
        for _old, new in applied.replacements:
            if self.block(new.cid) != new:
                raise PlacementError(
                    f"cannot undo: block of {new.cid!r} changed after the move"
                )
        self._candidate = None
        for old, _new in applied.replacements:
            self._place(self._idx[old.cid], old.x, old.y, old.width, old.height)
        self._stamp += 1
        self._energy = self.estimate = applied.energy_before
        self.slack = 0.0

    # ------------------------------------------------------------------
    # Invariant checks (test / paranoid-mode hooks)
    # ------------------------------------------------------------------
    def check_consistency(self, tolerance: float = 0.0) -> float:
        """Assert bitset + energy invariants against the from-scratch oracle.

        Raises :class:`PlacementError` when a block's mask differs from
        the one rebuilt from its cells, two masks intersect, the
        occupancy bitset is not their union, a footprint or keep-out
        entry or a cached centre disagrees with the block, the placement
        is illegal, the full pass differs from a ``placement_energy``
        recompute by more than *tolerance* (default: must be bit-exact),
        or the estimate has left its guard band (``|estimate - exact| <
        slack``, or equality while synced).  Reads nothing lazily, so it
        never syncs the energy.  Returns the recomputed energy.
        """
        stride = self._stride
        placement = self.snapshot()
        union = 0
        for block in placement.blocks():
            cid = block.cid
            i = self._idx[cid]
            expected = 0
            for cell in block.cells():
                expected |= 1 << ((cell.y + 1) * stride + cell.x + 1)
            if self._masks[i] != expected:
                raise PlacementError(
                    f"occupancy mask out of sync for component {cid!r}"
                )
            if union & expected:
                raise PlacementError(
                    f"occupancy mask of component {cid!r} overlaps another"
                )
            union |= expected
            footprint, keepout, keepout_t = self._shapes[
                block.width, block.height
            ]
            if (
                self._footprint[i] != footprint
                or self._keepout[i] != keepout
                or self._keepout_t[i] != keepout_t
            ):
                raise PlacementError(
                    f"footprint masks out of sync for component {cid!r}"
                )
            if (
                self._cx[i] != block.x + (block.width - 1) / 2.0
                or self._cy[i] != block.y + (block.height - 1) / 2.0
            ):
                raise PlacementError(
                    f"centre cache out of sync for component {cid!r}"
                )
        if union != self._occ:
            raise PlacementError("occupancy bitset out of sync with blocks")
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
