"""Numpy batch-move SA kernel (``engine="batch"``).

The incremental engine (:mod:`repro.place.incremental`) made a single
move trial cheap; this kernel makes *many* trials cheap at once.  Per
annealing step it:

1. draws ``K = batch_size`` candidate moves (kind, component, partner,
   position) from one vectorized RNG block;
2. validates all of them against the structure-of-arrays placement
   mirror — bounds, the no-full-span rule, and one-cell clearance as a
   ``(K, m)`` inflated-rectangle broadcast — exactly the
   :meth:`~repro.place.incremental.PlacementWorkspace._fits` semantics;
3. evaluates every legal candidate's incident-net energy delta as a
   gather + segment-sum over a CSR net adjacency;
4. applies Metropolis acceptance to the **greedily best** candidate
   (smallest delta): downhill accepts outright, uphill draws a single
   uniform against ``exp(-Δ/T)``.

**RNG-stream contract.**  The kernel consumes the annealer's seeded
``random.Random`` only to derive one 64-bit seed for an independent
``numpy.random.default_rng`` (PCG64) stream.  Per step the numpy stream
is consumed in a fixed order — kinds ``(K,)``, components ``(K,)``,
partners ``(K,)``, positions ``(K, 2)`` — regardless of which lanes
turn out legal, then at most one acceptance uniform (drawn only when
the best delta is non-negative).  Runs are therefore bit-reproducible
for a given ``(seed, batch_size)`` and independent of the host.  At
``batch_size=1`` the kernel does not approximate the python loop — it
**delegates** to :func:`repro.place.annealing._anneal_incremental`
verbatim, so ``engine="batch", batch_size=1`` is bit-identical to
``engine="incremental"`` (same trajectories, traces, and energies);
that is the degenerate case of the contract and the anchor of the
parity suite.

At ``K > 1`` there is deliberately no bit-level contract against the
serial engines (vectorized reductions sum in a different order, and
best-of-K is a different walk): the gates are *final energy never worse
than the incremental engine on the bench set* and *checker-clean*, both
pinned by tests and recorded in the BENCH artifact.

Energies reported outward remain exact: the returned best energy is a
full scalar :func:`~repro.place.energy.placement_energy` evaluation of
the returned placement, so downstream consumers see a true Eq. 3
value, not a vectorized approximation.
"""

from __future__ import annotations

import math
import random
from time import perf_counter

import numpy as _np

from repro.errors import PlacementError
from repro.obs.instrument import Instrumentation
from repro.place.annealing import (
    AnnealCheckpoint,
    AnnealingParameters,
    AnnealingResult,
    _anneal_incremental,
    _flush_final,
    _flush_step,
)
from repro.place.energy import ConnectionPriorities, placement_energy
from repro.place.placement import PlacedComponent, Placement

__all__ = ["BatchWorkspace", "anneal_batch", "numpy_rng_state", "resume_batch"]


def numpy_rng_state(np_seed: int) -> dict:
    """The PCG64 ``bit_generator.state`` a fresh stream would start in.

    :func:`repro.place.annealing.anneal_start` stores this in the
    checkpoint instead of the seed itself so every resume restores the
    *advanced* stream position, not the beginning.
    """
    return _np.random.default_rng(np_seed).bit_generator.state


class BatchWorkspace:
    """Structure-of-arrays mirror of a placement for the batch kernel.

    Block origins and footprints live in int64 arrays, centres in
    float64 (the exact ``x + (width - 1) / 2.0`` halves), and the net
    adjacency in CSR form (``inc_ptr`` / ``inc_other`` / ``inc_p``,
    both directions per net) — everything a step needs without touching
    a python object.
    """

    def __init__(
        self,
        placement: Placement,
        priorities: ConnectionPriorities,
        batch_size: int,
        np_seed: int,
        move_weights: tuple[float, float, float] | None = None,
    ) -> None:
        self.grid = placement.grid
        self.priorities = priorities
        self.k = batch_size
        self.width = placement.grid.width
        self.height = placement.grid.height
        cids = sorted(placement.components())
        self.cids = cids
        self.m = len(cids)
        idx = {cid: i for i, cid in enumerate(cids)}
        blocks = [placement.block(cid) for cid in cids]
        self.bx = _np.array([b.x for b in blocks], dtype=_np.int64)
        self.by = _np.array([b.y for b in blocks], dtype=_np.int64)
        self.bw = _np.array([b.width for b in blocks], dtype=_np.int64)
        self.bh = _np.array([b.height for b in blocks], dtype=_np.int64)
        self.cx = self.bx + (self.bw - 1) / 2.0
        self.cy = self.by + (self.bh - 1) / 2.0
        nets = list(priorities.priorities.items())
        self.net_a = _np.array(
            [idx[a] for (a, _b), _p in nets], dtype=_np.int64
        )
        self.net_b = _np.array(
            [idx[b] for (_a, b), _p in nets], dtype=_np.int64
        )
        self.net_p = _np.array([p for _ab, p in nets], dtype=_np.float64)
        # CSR incident adjacency: per component, (other, priority) of
        # every net touching it, both directions.
        incident: list[list[tuple[int, float]]] = [[] for _ in range(self.m)]
        for (a, b), p in nets:
            incident[idx[a]].append((idx[b], p))
            incident[idx[b]].append((idx[a], p))
        counts = [len(pairs) for pairs in incident]
        self.inc_ptr = _np.zeros(self.m + 1, dtype=_np.int64)
        _np.cumsum(counts, out=self.inc_ptr[1:])
        self.inc_other = _np.array(
            [o for pairs in incident for o, _p in pairs], dtype=_np.int64
        )
        self.inc_p = _np.array(
            [p for pairs in incident for _o, p in pairs], dtype=_np.float64
        )
        # Dense symmetric priority matrix (m is tens, not thousands):
        # P[a, b] is the a-b net priority or 0 — the swap-delta
        # correction term reads it per lane.
        self.net_matrix = _np.zeros((self.m, self.m), dtype=_np.float64)
        self.net_matrix[self.net_a, self.net_b] = self.net_p
        self.net_matrix[self.net_b, self.net_a] = self.net_p
        self.rng = _np.random.default_rng(np_seed)
        # Optional move-mix bias (translate/swap/rotate probabilities);
        # None keeps the uniform integers draw of the RNG-stream
        # contract, a weighted workspace is a different deterministic
        # walk (same rule as the serial sampler's weighted mode).
        if move_weights is None:
            self._kind_p = None
        else:
            w = _np.asarray(move_weights, dtype=_np.float64)
            self._kind_p = w / w.sum()
        self._lanes = _np.arange(batch_size)
        self._inf_k = _np.full(batch_size, _np.inf)
        #: Running energy: exact (scalar Eq. 3) at construction, then a
        #: vectorized full recompute after each accepted move.
        self.energy = placement_energy(placement, priorities)

    # ------------------------------------------------------------------
    # Energy
    # ------------------------------------------------------------------
    def vector_energy(self) -> float:
        """Full Eq. 3 evaluation as one vectorized reduction."""
        cx = self.cx
        cy = self.cy
        a = self.net_a
        b = self.net_b
        return float(
            _np.sum(
                self.net_p
                * (_np.abs(cx[a] - cx[b]) + _np.abs(cy[a] - cy[b]))
            )
        )

    def snapshot_placement(self) -> Placement:
        """Immutable :class:`Placement` of the current array state."""
        return Placement(self.grid, self._blocks_from_arrays())

    def _blocks_from_arrays(
        self, arrays: tuple | None = None
    ) -> dict[str, PlacedComponent]:
        bx, by, bw, bh = arrays if arrays is not None else (
            self.bx, self.by, self.bw, self.bh
        )
        return {
            cid: PlacedComponent(
                cid, int(bx[i]), int(by[i]), int(bw[i]), int(bh[i])
            )
            for i, cid in enumerate(self.cids)
        }

    def check_consistency(self, tolerance: float = 1e-6) -> None:
        """Assert legality + energy against the from-scratch oracle."""
        placement = self.snapshot_placement()
        if not placement.is_legal():
            raise PlacementError(
                "batch workspace holds an illegal placement: "
                + "; ".join(placement.violations())
            )
        exact = placement_energy(placement, self.priorities)
        if abs(exact - self.energy) > tolerance:
            raise PlacementError(
                f"batch energy drifted: maintained {self.energy!r} vs "
                f"recomputed {exact!r}"
            )

    # ------------------------------------------------------------------
    # One annealing step (K candidates, at most one accept)
    # ------------------------------------------------------------------
    def step(self, temperature: float) -> tuple[int, bool]:
        """Propose K moves, evaluate all, Metropolis-accept the best.

        Returns ``(legal_candidates, accepted)`` — the number of legal
        candidates actually evaluated (the throughput unit surfaced as
        ``sa.moves_proposed``) and whether the best one was taken.
        """
        rng = self.rng
        k = self.k
        m = self.m
        if self._kind_p is None:
            kinds = rng.integers(0, 3, size=k)  # 0 tran., 1 swap, 2 rot.
        else:
            kinds = rng.choice(3, size=k, p=self._kind_p)
        comps = rng.integers(0, m, size=k)
        partners = rng.integers(0, m, size=k)
        u = rng.random((k, 2))

        bx, by, bw, bh = self.bx, self.by, self.bw, self.bh
        width = self.width
        height = self.height
        is_swap = kinds == 1
        is_rot = kinds == 2
        # Primary change: comps[j] moves to (x1, y1) with footprint
        # (w1, h1).  Translate keeps the footprint at a sampled origin,
        # rotate transposes in place, swap takes the partner's origin.
        w1 = _np.where(is_rot, bh[comps], bw[comps])
        h1 = _np.where(is_rot, bw[comps], bh[comps])
        range_x = _np.maximum(width - w1, 0)
        range_y = _np.maximum(height - h1, 0)
        tx = _np.minimum(
            (u[:, 0] * (range_x + 1)).astype(_np.int64), range_x
        )
        ty = _np.minimum(
            (u[:, 1] * (range_y + 1)).astype(_np.int64), range_y
        )
        x1 = _np.where(is_swap, bx[partners], _np.where(is_rot, bx[comps], tx))
        y1 = _np.where(is_swap, by[partners], _np.where(is_rot, by[comps], ty))
        # Secondary change (swap lanes only): the partner moves to the
        # primary component's *old* origin, keeping its own footprint.
        x2 = bx[comps]
        y2 = by[comps]
        w2 = bw[partners]
        h2 = bh[partners]

        # Legality: bounds + no-full-span + pairwise clearance of one
        # cell, mirroring PlacementWorkspace._fits.
        legal = ~(is_swap & (partners == comps))
        legal &= (x1 >= 0) & (y1 >= 0)
        legal &= (x1 + w1 <= width) & (y1 + h1 <= height)
        legal &= (w1 < width) & (h1 < height)
        swap_bounds = (
            (x2 + w2 <= width) & (y2 + h2 <= height)
            & (w2 < width) & (h2 < height)
        )
        legal &= swap_bounds | ~is_swap
        lanes = self._lanes
        # (K, m) inflated-rectangle overlap of the primary change
        # against every block, excluding the moved pair.
        ov1 = (
            (x1[:, None] < (bx + bw + 1)[None, :])
            & (bx[None, :] < (x1 + w1 + 1)[:, None])
            & (y1[:, None] < (by + bh + 1)[None, :])
            & (by[None, :] < (y1 + h1 + 1)[:, None])
        )
        ov1[lanes, comps] = False
        ov1[lanes[is_swap], partners[is_swap]] = False
        legal &= ~ov1.any(axis=1)
        if is_swap.any():
            ov2 = (
                (x2[:, None] < (bx + bw + 1)[None, :])
                & (bx[None, :] < (x2 + w2 + 1)[:, None])
                & (y2[:, None] < (by + bh + 1)[None, :])
                & (by[None, :] < (y2 + h2 + 1)[:, None])
            )
            ov2[lanes, comps] = False
            ov2[lanes, partners] = False
            legal &= ~ov2.any(axis=1) | ~is_swap
            # Clearance of the swapped pair against each other.
            pair_separated = (
                (x1 + w1 + 1 <= x2) | (x2 + w2 + 1 <= x1)
                | (y1 + h1 + 1 <= y2) | (y2 + h2 + 1 <= y1)
            )
            legal &= pair_separated | ~is_swap

        n_legal = int(_np.count_nonzero(legal))
        if n_legal == 0:
            return 0, False

        ncx1 = x1 + (w1 - 1) / 2.0
        ncy1 = y1 + (h1 - 1) / 2.0
        deltas = self._inf_k.copy()
        single = _np.nonzero(legal & ~is_swap)[0]
        swaps = _np.nonzero(legal & is_swap)[0]
        # One CSR gather for every legal lane: single lanes contribute
        # one moved component, swap lanes two (a to the partner's
        # origin, b to a's old origin), each evaluated against the
        # *current* centres; the shared a-b net is then corrected to
        # the both-endpoints-moved value (see _swap_correction).
        if swaps.size:
            a = comps[swaps]
            b = partners[swaps]
            nax = ncx1[swaps]
            nay = ncy1[swaps]
            nbx = x2[swaps] + (w2[swaps] - 1) / 2.0
            nby = y2[swaps] + (h2[swaps] - 1) / 2.0
            cat_comps = _np.concatenate((comps[single], a, b))
            cat_cx = _np.concatenate((ncx1[single], nax, nbx))
            cat_cy = _np.concatenate((ncy1[single], nay, nby))
            cat = self._single_deltas(cat_comps, cat_cx, cat_cy)
            ns, nw = single.size, swaps.size
            if ns:
                deltas[single] = cat[:ns]
            deltas[swaps] = (
                cat[ns:ns + nw] + cat[ns + nw:]
                + self._swap_correction(a, b, nax, nay, nbx, nby)
            )
        elif single.size:
            deltas[single] = self._single_deltas(
                comps[single], ncx1[single], ncy1[single]
            )

        best = int(_np.argmin(deltas))
        best_delta = float(deltas[best])
        if best_delta < 0:
            accept = True
        else:
            accept = rng.random() < math.exp(-best_delta / temperature)
        if accept:
            a = int(comps[best])
            self.bx[a] = x1[best]
            self.by[a] = y1[best]
            self.bw[a] = w1[best]
            self.bh[a] = h1[best]
            self.cx[a] = ncx1[best]
            self.cy[a] = ncy1[best]
            if is_swap[best]:
                b = int(partners[best])
                self.bx[b] = x2[best]
                self.by[b] = y2[best]
                self.cx[b] = x2[best] + (w2[best] - 1) / 2.0
                self.cy[b] = y2[best] + (h2[best] - 1) / 2.0
            self.energy = self.vector_energy()
        return n_legal, accept

    def _single_deltas(self, comps, new_cx, new_cy):
        """Incident-net deltas of single-component lanes, vectorized.

        CSR gather: concatenate every lane's incident slice, broadcast
        the lane's old/new centre over it, and segment-sum the per-net
        contributions back per lane with ``bincount``.
        """
        ptr = self.inc_ptr
        starts = ptr[comps]
        counts = ptr[comps + 1] - starts
        total = int(counts.sum())
        n = comps.shape[0]
        if total == 0:
            return _np.zeros(n)
        excl = _np.cumsum(counts) - counts
        flat = _np.repeat(starts - excl, counts) + _np.arange(total)
        segment = _np.repeat(_np.arange(n), counts)
        others = self.inc_other[flat]
        pr = self.inc_p[flat]
        ocx = self.cx[others]
        ocy = self.cy[others]
        nx = _np.repeat(new_cx, counts)
        ny = _np.repeat(new_cy, counts)
        ox = _np.repeat(self.cx[comps], counts)
        oy = _np.repeat(self.cy[comps], counts)
        contrib = pr * (
            (_np.abs(nx - ocx) + _np.abs(ny - ocy))
            - (_np.abs(ox - ocx) + _np.abs(oy - ocy))
        )
        return _np.bincount(segment, weights=contrib, minlength=n)

    def _swap_correction(self, a, b, nax, nay, nbx, nby):
        """Shared-net fixup making two single-move deltas a swap delta.

        Summing the independent single-move deltas of the pair counts
        the a-b net (when one exists) twice, each time against the
        partner's *old* centre.  The true swap contribution evaluates
        it once with both endpoints moved (mirroring
        ``PlacementWorkspace._delta_pair``), so per lane, with priority
        ``p = P[a, b]`` and Manhattan distance ``d``::

            correction = p * (d(na, nb) - d(na, ob))   # a-side: old-b -> new-b
                       - p * (d(nb, oa) - d(ob, oa))   # drop b-side's count

        Lanes whose pair shares no net have ``p = 0`` and are untouched.
        """
        oax = self.cx[a]
        oay = self.cy[a]
        obx = self.cx[b]
        oby = self.cy[b]
        p = self.net_matrix[a, b]
        d_nn = _np.abs(nax - nbx) + _np.abs(nay - nby)
        d_no = _np.abs(nax - obx) + _np.abs(nay - oby)
        d_bn = _np.abs(nbx - oax) + _np.abs(nby - oay)
        d_oo = _np.abs(obx - oax) + _np.abs(oby - oay)
        return p * ((d_nn - d_no) - (d_bn - d_oo))


def anneal_batch(
    current: Placement,
    priorities: ConnectionPriorities,
    params: AnnealingParameters,
    rng: random.Random,
    instrumentation: Instrumentation | None,
    verify: bool = False,
) -> AnnealingResult:
    """The batch engine's move loop (see the module docstring).

    ``batch_size=1`` delegates to the incremental loop — bit-identical
    to ``engine="incremental"`` by construction.  Larger batch sizes
    run the vectorized best-of-K kernel.
    """
    if params.batch_size == 1:
        return _anneal_incremental(
            current, priorities, params, rng, instrumentation, verify=verify
        )
    workspace = BatchWorkspace(
        current, priorities, params.batch_size, rng.getrandbits(64),
        move_weights=params.move_weights,
    )
    if instrumentation is not None:
        instrumentation.gauge("sa.batch_size", params.batch_size)
    current_energy = workspace.energy
    initial_energy = current_energy
    best_energy = current_energy
    best_arrays = (
        workspace.bx.copy(), workspace.by.copy(),
        workspace.bw.copy(), workspace.bh.copy(),
    )

    accepted = 0
    trials = 0
    trace: list[float] = []
    temperature = params.initial_temperature
    while temperature > params.min_temperature:
        step_started = perf_counter()
        kernel_seconds = 0.0
        step_accepted = 0
        step_trials = 0
        for _ in range(params.iterations_per_temperature):
            kernel_started = perf_counter()
            n_legal, took = workspace.step(temperature)
            kernel_seconds += perf_counter() - kernel_started
            step_trials += n_legal
            if took:
                step_accepted += 1
                if verify:
                    workspace.check_consistency()
                current_energy = workspace.energy
                if current_energy < best_energy:
                    best_energy = current_energy
                    best_arrays = (
                        workspace.bx.copy(), workspace.by.copy(),
                        workspace.bw.copy(), workspace.bh.copy(),
                    )
        accepted += step_accepted
        trials += step_trials
        trace.append(current_energy)
        if instrumentation is not None:
            instrumentation.observe("sa.batch_kernel_seconds", kernel_seconds)
        _flush_step(
            instrumentation, temperature, current_energy, best_energy,
            step_trials, step_accepted, perf_counter() - step_started,
        )
        temperature *= params.cooling_rate

    best = Placement(
        workspace.grid, workspace._blocks_from_arrays(best_arrays)
    )
    # Report a true scalar Eq. 3 energy, not the vectorized running
    # value — downstream consumers (multi-start reduction, bench
    # artifacts) compare energies across engines.
    best_energy = placement_energy(best, priorities)
    _flush_final(instrumentation, initial_energy, best_energy)
    return AnnealingResult(
        placement=best,
        energy=best_energy,
        initial_energy=initial_energy,
        accepted_moves=accepted,
        trials=trials,
        energy_trace=trace,
    )


def resume_batch(
    cp: AnnealCheckpoint,
    priorities: ConnectionPriorities,
    params: AnnealingParameters,
    until_iterations: int | None,
    instrumentation: Instrumentation | None,
) -> AnnealCheckpoint:
    """Advance a suspended batch anneal (see ``anneal_resume``).

    Continuity is exact: the PCG64 stream is restored from the stored
    ``bit_generator.state`` (the advanced position, not the seed), and
    the checkpoint's running energy overrides the workspace's
    construction-time scalar evaluation — the vectorized full recompute
    after an accept can differ from the scalar Eq. 3 sum in the last
    ulp, so carrying the stored value keeps a split run's acceptance
    decisions bit-identical to an uninterrupted :func:`anneal_batch`.
    A finished resume reports the exact scalar energy of the best
    placement outward, exactly like :func:`anneal_batch`.
    """
    workspace = BatchWorkspace(
        cp.placement, priorities, params.batch_size, np_seed=0,
        move_weights=params.move_weights,
    )
    workspace.rng.bit_generator.state = cp.np_rng_state
    workspace.energy = cp.current_energy
    if instrumentation is not None:
        instrumentation.gauge("sa.batch_size", params.batch_size)
    current_energy = cp.current_energy
    best_energy = cp.best_energy
    best_blocks = {
        cid: cp.best_placement.block(cid)
        for cid in cp.best_placement.components()
    }
    accepted = cp.accepted_moves
    trials = cp.trials
    trace = list(cp.energy_trace)
    temperature = cp.temperature
    steps_done = cp.steps_done
    iterations_done = cp.iterations_done
    while temperature > params.min_temperature and (
        until_iterations is None or iterations_done < until_iterations
    ):
        step_started = perf_counter()
        kernel_seconds = 0.0
        step_accepted = 0
        step_trials = 0
        for _ in range(params.iterations_per_temperature):
            kernel_started = perf_counter()
            n_legal, took = workspace.step(temperature)
            kernel_seconds += perf_counter() - kernel_started
            step_trials += n_legal
            if took:
                step_accepted += 1
                current_energy = workspace.energy
                if current_energy < best_energy:
                    best_energy = current_energy
                    best_blocks = workspace._blocks_from_arrays()
        accepted += step_accepted
        trials += step_trials
        trace.append(current_energy)
        if instrumentation is not None:
            instrumentation.observe("sa.batch_kernel_seconds", kernel_seconds)
        _flush_step(
            instrumentation, temperature, current_energy, best_energy,
            step_trials, step_accepted, perf_counter() - step_started,
        )
        temperature *= params.cooling_rate
        steps_done += 1
        iterations_done += params.iterations_per_temperature
    best_placement = Placement(workspace.grid, best_blocks)
    finished = temperature <= params.min_temperature
    if finished:
        # Outward energies are exact, same as anneal_batch's final
        # recompute; intermediate rungs compare the running vectorized
        # values, which is fine — they rank, they are not reported.
        best_energy = placement_energy(best_placement, priorities)
        _flush_final(instrumentation, cp.initial_energy, best_energy)
    return AnnealCheckpoint(
        engine=cp.engine,
        seed=cp.seed,
        temperature=temperature,
        steps_done=steps_done,
        iterations_done=iterations_done,
        rng_state=cp.rng_state,
        np_rng_state=workspace.rng.bit_generator.state,
        placement=workspace.snapshot_placement(),
        best_placement=best_placement,
        current_energy=current_energy,
        best_energy=best_energy,
        initial_energy=cp.initial_energy,
        accepted_moves=accepted,
        trials=trials,
        energy_trace=trace,
        finished=finished,
    )
