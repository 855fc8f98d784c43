"""Incremental annealing workspace: in-place moves with delta energy.

The straightforward SA move loop builds a brand-new
:class:`~repro.place.placement.Placement` per trial — a full dict copy
in ``with_block``, an all-pairs ``is_legal()`` scan, and an Eq. 3
re-evaluation over *every* net — even though one move touches at most
two components.  :class:`PlacementWorkspace` replaces all three:

* **In-place moves** — block positions live in index-aligned integer
  lists (one slot per sorted component id); an accepted move overwrites
  a few slots and a rejected one mutates nothing.  Frozen
  :class:`~repro.place.placement.PlacedComponent` blocks are built only
  when asked for: by :meth:`block` and :meth:`snapshot_blocks` (the
  annealer's best-so-far snapshots and final placement) — never per
  committed move.
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
  the :class:`~repro.place.energy.ConnectionPriorities`; a move
  recomputes only the nets incident to the moved component(s).

Rejected moves — the annealer's overwhelmingly common case at low
temperature — therefore cost a mask test plus the incident nets.
:meth:`anneal_step`, the annealer's kernel and the workspace's only
move code, runs a whole temperature step in one call: draw, legality,
delta, the exact fallback, the Metropolis test, the commit and the
best-so-far check, on locals bound once per step and with no record
allocated per trial.  The tests run it against the immutable oracle
loop of ``tests/oracles/annealing.py``.

**Exact energy on read.**  A commit does not re-evaluate Eq. 3.  It
adds the move's incident-nets delta to :attr:`estimate` and widens
:attr:`slack`, a bound on ``|estimate - exact|`` that grows by a fixed
per-commit allowance (far above the float rounding one commit can
introduce; see ``_commit_slack``).  The :attr:`energy` property runs a
tight full pass — the *identical* term order and float expressions as
:func:`~repro.place.energy.placement_energy` — only when it is read
while unsynced, so every value it returns is *bit-identical* to a
from-scratch evaluation, never merely "close".  That exactness is what
lets a seeded incremental run make the same accept/reject and
best-so-far decisions as the immutable reference loop (see
:mod:`repro.place.annealing`), while the estimate plus slack lets the
annealer skip the pass whenever the estimate is clearly above its best.

Legality semantics are *exactly* those of :meth:`Placement.is_legal`:
bounds, the no-full-span rule, and pairwise clearance of one cell.  The
workspace requires — and preserves — a legal placement, so a move only
needs to validate the blocks it moves.
"""

from __future__ import annotations

import math
import random
import sys
from typing import Callable

from repro.errors import PlacementError
from repro.place.energy import ConnectionPriorities, placement_energy
from repro.place.placement import PlacedComponent, Placement

__all__ = ["PlacementWorkspace"]

#: Largest population :meth:`random.Random.sample` draws two items from
#: through its list-pool branch (``setsize`` for ``k <= 5``); larger
#: populations take its set-rejection branch.
_SAMPLE_POOL_MAX = 21

#: Absolute part of the per-commit :attr:`PlacementWorkspace.slack`
#: allowance.  The incident-nets delta agrees with the full-evaluation
#: difference within ~1e-11 on the benchmark energies, so this is a
#: wide margin, not a tuned tolerance.
_COMMIT_SLACK = 1e-6

#: Below this magnitude the incident-nets delta estimate cannot be
#: trusted to carry the same *sign* as a full-evaluation difference
#: (symmetric moves have a true delta of exactly zero, and the two
#: computations round differently), so :meth:`PlacementWorkspace.anneal_step`
#: falls back to the exact delta.  A wrong sign would change the RNG
#: stream: ``delta < 0`` accepts without drawing ``rng.random()``.  The
#: estimate and the exact delta agree within ~1e-11, so any estimate
#: beyond this threshold has a reliable sign.
_EXACT_DELTA_THRESHOLD = 1e-6


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
        #: ``k.bit_length()`` for every translate origin range ``k``.
        self._bit_length = [
            k.bit_length() for k in range(max(self._width, self._height) + 1)
        ]
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

    def anneal_step(
        self,
        rng: random.Random,
        temperature: float,
        iterations: int,
        best_energy: float,
        check: Callable[[float], None] | None = None,
    ) -> tuple[int, int, float, dict[str, PlacedComponent] | None]:
        """Run one SA temperature step: *iterations* Metropolis trials.

        Each trial draws a move exactly as the oracle's ``random_move``
        (``tests/oracles/moves.py``) does (up to 20 attempts
        until one is legal; none legal means no trial), scores it by its
        incident-nets delta, falls back to the exact delta when that is
        within ``_EXACT_DELTA_THRESHOLD`` of zero, accepts it by the
        Metropolis test at *temperature*, commits it in place, and
        checks it against *best_energy*.  ``rng.choice``,
        ``rng.randint`` and ``rng.sample(components, 2)`` are inlined as
        the ``rng.getrandbits`` rejection loops of CPython's
        ``_randbelow_with_getrandbits`` (``k = n.bit_length()`` bits,
        redrawn while ``>= n``), including both of ``sample``'s
        branches, so *rng* is consumed draw for draw like that sampler;
        legality equals :meth:`Placement.is_legal` of the moved
        placement.  A translate draws its origin from ``[0, width - w]``
        without the reference sampler's empty-range check: the
        workspace's blocks never span the full grid, so the range is
        never empty.

        A commit writes only the slots the move changes, adds the
        incident-nets delta to :attr:`estimate` and widens :attr:`slack`
        by the per-commit allowance; the commit of a move scored by the
        exact fallback takes that pass's energy and leaves the workspace
        synced.  An identity move (every centre unchanged) has an exact
        delta of ``0.0``: it is accepted with its ``rng.random()`` draw
        and changes nothing.  After a commit whose estimate lies within
        :attr:`slack` of *best_energy* or below it, the exact
        :attr:`energy` is read and compared; a lower one becomes the
        new best.  *best_energy* must not exceed the current energy, as
        the annealer's best-so-far never does: an identity move cannot
        be a new best and skips the check.  *check*, when given, is called with the incident-nets
        delta after every commit that moves a block.

        Returns ``(trials, accepted, best_energy, best_blocks)``, where
        ``best_blocks`` is a snapshot of the step's last new best, or
        ``None`` when the step found none.
        """
        n = len(self._components)
        n_bits = n.bit_length()
        pool_branch = n <= _SAMPLE_POOL_MAX
        last = n - 1
        last_bits = last.bit_length()
        width = self._width
        height = self._height
        x_span = width + 1
        y_span = height + 1
        bit_length = self._bit_length
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
        shapes = self._shapes
        incident = self._incident
        commit_slack = self._commit_slack
        getrandbits = rng.getrandbits
        draw = rng.random
        exp = math.exp
        threshold = _EXACT_DELTA_THRESHOLD
        attempts = range(20)
        occ = self._occ
        best_blocks = None
        trials = 0
        accepted = 0
        for _ in range(iterations):
            # Draw: random_move's 20 attempts.  The kind is an index into
            # its (translate, swap, rotate): 3.bit_length() == 2 bits.
            for _attempt in attempts:
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
                    rest = occ ^ masks[a] ^ masks[b]
                    a_shift = bx + by * stride
                    if rest & (keepout[a] << a_shift):
                        continue
                    a_mask = footprints[a] << a_shift
                    b_shift = ax + ay * stride
                    if (rest | a_mask) & (keepout[b] << b_shift):
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
                    break
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
                    shift = x + y * stride
                    if (occ ^ masks[i]) & (keepout[i] << shift):
                        continue
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
                    shift = x + y * stride
                    if (occ ^ masks[i]) & (keepout_t[i] << shift):
                        continue
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
                break
            else:
                continue
            trials += 1
            delta = new_sum - old_sum
            change = delta
            full = None
            if -threshold < delta < threshold:
                # Too close to zero to trust the sign: take the exact
                # delta, a difference of two full evaluations.
                if kind != 1 and nx == ox and ny == oy:
                    # Identity move: exactly 0.0, always accepted.
                    draw()
                    accepted += 1
                    continue
                current = self.energy
                if kind == 1:
                    cx[a] = nax
                    cy[a] = nay
                    cx[b] = nbx
                    cy[b] = nby
                    full = self._exact_energy()
                    cx[a] = oax
                    cy[a] = oay
                    cx[b] = obx
                    cy[b] = oby
                else:
                    cx[i] = nx
                    cy[i] = ny
                    full = self._exact_energy()
                    cx[i] = ox
                    cy[i] = oy
                change = full - current
            if change < 0 or draw() < exp(-change / temperature):
                accepted += 1
                if kind == 1:
                    b_mask = footprints[b] << b_shift
                    occ ^= masks[a] ^ masks[b] ^ a_mask ^ b_mask
                    masks[a] = a_mask
                    masks[b] = b_mask
                    xs[a] = bx
                    ys[a] = by
                    xs[b] = ax
                    ys[b] = ay
                    cx[a] = nax
                    cy[a] = nay
                    cx[b] = nbx
                    cy[b] = nby
                else:
                    if kind == 0:
                        xs[i] = x
                        ys[i] = y
                        mask = footprints[i] << shift
                    else:
                        ws[i] = w
                        hs[i] = h
                        footprint = footprints[i] = shapes[w, h][0]
                        keepout[i], keepout_t[i] = keepout_t[i], keepout[i]
                        mask = footprint << shift
                    occ ^= masks[i] ^ mask
                    masks[i] = mask
                    cx[i] = nx
                    cy[i] = ny
                if full is None:
                    estimate = self.estimate = self.estimate + delta
                    slack = self.slack = self.slack + commit_slack
                else:
                    self._energy = self.estimate = estimate = full
                    self.slack = slack = 0.0
                if check is not None:
                    self._occ = occ
                    check(delta)
                # Outside the guard band the exact energy cannot beat
                # the best, so only a read inside it pays a full pass.
                if estimate < best_energy + slack:
                    energy = self.energy
                    if energy < best_energy:
                        best_energy = energy
                        best_blocks = self.snapshot_blocks()
        self._occ = occ
        return trials, accepted, best_energy, best_blocks

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
