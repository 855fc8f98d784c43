"""Deterministic multi-start simulated-annealing placement.

The paper's SA placer (Sec. IV-B) is seeded, so independent anneals
from different seeds are embarrassingly parallel — the classic way to
buy placement quality with cores instead of wall-clock.  This module
makes that *deterministic*:

* **Seed derivation** — :func:`multistart_seeds` maps a base seed to
  ``restarts`` distinct seeds.  Restart 0 keeps the base seed itself
  (so the single-run trajectory is always among the candidates and
  best-of-N energy can never be worse than the single run); restart
  ``k >= 1`` mixes ``base + k * GOLDEN_GAMMA`` through the SplitMix64
  finaliser — a bijection of the 64-bit space per base, with full
  avalanche across bases, so distinct ``(base, k)`` pairs collide no
  more often than random 64-bit draws.
* **Total-order reduction** — :func:`select_best` picks the winner by
  ``(energy, derived seed)``.  The order is total, so the reduction is
  independent of completion order and worker count: ``jobs=8`` returns
  bit-identically what ``jobs=1`` returns.
* **Merged instrumentation** — each restart runs under its own
  :class:`~repro.obs.Instrumentation` tagged with its worker index; the
  aggregates are absorbed into the caller's instrumentation (gauges
  merge by the deterministic worker-rank rule, histograms bucket-merge),
  so SA counters and latency percentiles in the ``--profile`` report
  cover every restart regardless of ``jobs``.
* **Merged event streams** — when the caller's sink is live (e.g.
  ``--trace``), each worker additionally records its event stream and
  the parent replays it after the pool drains, time-shifted to the
  dispatch instant and stamped with the worker index.  A merged trace
  therefore contains every restart's span tree, unambiguous under the
  ``(worker, span_id)`` namespacing, and ``trace2chrome`` renders one
  track per worker.  A worker records only the names the caller's sink
  subscribes to (:attr:`~repro.obs.sinks.Sink.subscribed`), so a
  service job's heartbeat relay, which reads two names, does not make
  every restart build and ship its whole stream.
* **Live heartbeats** — when a
  :class:`~repro.obs.live.LiveProgressMonitor` is installed, each
  worker relays throttled ``sa.step`` progress over the monitor's
  :class:`~repro.obs.live.BeatPipe`, which pool workers inherit through
  the pool initializer, giving the parent a per-restart
  temperature/energy readout while the pool is still running.
  Heartbeats are telemetry only: results are bit-identical with the
  channel on or off.

``restarts=1, jobs=1`` short-circuits to a direct
:func:`~repro.place.annealing.anneal_placement` call with the caller's
instrumentation — bit-identical to the pre-parallel pipeline, including
the live ``sa.step`` event stream — unless a live monitor is installed:
then the one restart runs inline on the restart path, which relays its
heartbeats, and returns the same result.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dataclass_replace

from repro.errors import PlacementError
from repro.obs.events import Event
from repro.obs.instrument import Instrumentation, InstrumentationSnapshot
from repro.obs.live import (
    HeartbeatRelay,
    active_monitor,
    install_beats,
    installed_beats,
)
from repro.obs.sinks import RecordingSink, Sink, TeeSink
from repro.parallel.pool import PoolSession, resolve_jobs
from repro.place.annealing import (
    AnnealingParameters,
    AnnealingResult,
    anneal_placement,
)
from repro.place.energy import ConnectionPriorities
from repro.place.grid import ChipGrid

__all__ = [
    "SEED_DERIVATIONS",
    "RestartOutcome",
    "anneal_multistart",
    "derive_seed",
    "multistart_seeds",
    "select_best",
    "splitmix64",
]

#: Supported restart-seed derivation schemes: SplitMix64 only.  The
#: name stays a validated parameter because callers pass it.
SEED_DERIVATIONS = ("splitmix",)

_MASK64 = (1 << 64) - 1
#: 2**64 / golden ratio — SplitMix64's stream increment.
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15


def splitmix64(value: int) -> int:
    """The SplitMix64 finaliser: a 64-bit bijection with full avalanche.

    Reference constants from Steele, Lea & Flood, *Fast splittable
    pseudorandom number generators* (OOPSLA'14) — the same mix
    ``java.util.SplittableRandom`` and numpy's ``SeedSequence``
    machinery build on.
    """
    z = (value + _GOLDEN_GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(base_seed: int, k: int, derivation: str = "splitmix") -> int:
    """The seed of restart *k* (restart 0 always keeps the base seed)."""
    if derivation not in SEED_DERIVATIONS:
        raise PlacementError(
            f"seed derivation must be one of {SEED_DERIVATIONS}, "
            f"got {derivation!r}"
        )
    if k == 0:
        # The single-run trajectory must stay among the candidates.
        return base_seed
    return splitmix64((base_seed + k * _GOLDEN_GAMMA) & _MASK64)


def multistart_seeds(
    base_seed: int, restarts: int, derivation: str = "splitmix"
) -> tuple[int, ...]:
    """The derived seed of every restart (restart 0 keeps the base seed)."""
    if restarts < 1:
        raise PlacementError(f"restarts must be >= 1, got {restarts}")
    return tuple(
        derive_seed(base_seed, k, derivation) for k in range(restarts)
    )


@dataclass(frozen=True)
class RestartOutcome:
    """One restart's annealing result plus its telemetry aggregates.

    ``events`` is the restart's event stream (worker-stamped), limited
    to the names the parent's sink subscribes to and captured only when
    that sink is live; empty otherwise so nothing extra crosses the
    pool boundary on untraced runs.
    """

    seed: int
    result: AnnealingResult
    snapshot: InstrumentationSnapshot
    events: tuple[Event, ...] = ()


@dataclass(frozen=True)
class _AnnealTask:
    """Picklable description of one restart (the pool payload)."""

    grid: ChipGrid
    footprints: dict[str, tuple[int, int]]
    priorities: ConnectionPriorities
    parameters: AnnealingParameters
    seed: int
    engine: str
    #: Restart index — the event/snapshot worker namespace.
    index: int = 0
    #: Record and return the worker's event stream (traced runs only).
    capture_events: bool = False
    #: Names to record when capturing (``None``: every name).
    capture_names: frozenset[str] | None = None
    #: Relay heartbeats: a live monitor listens.
    live: bool = False


def _run_anneal_task(task: _AnnealTask) -> RestartOutcome:
    """Worker entry point: one seeded anneal with private instrumentation."""
    recorder: RecordingSink | None = None
    sinks: list[Sink] = []
    if task.capture_events:
        recorder = RecordingSink()
        # Built alone on the recorder, the instrumentation builds events
        # for the parent's names only.
        recorder.subscribed = task.capture_names
        sinks.append(recorder)
    relay: HeartbeatRelay | None = None
    beats = installed_beats() if task.live else None
    if beats is not None:
        relay = HeartbeatRelay(beats, worker=task.index, seed=task.seed)
        sinks.append(relay)
    sink: Sink | None
    if not sinks:
        sink = None
    elif len(sinks) == 1:
        sink = sinks[0]
    else:
        sink = TeeSink(*sinks)
    instr = Instrumentation(sink=sink, worker=task.index)
    try:
        result = anneal_placement(
            task.grid,
            task.footprints,
            task.priorities,
            parameters=task.parameters,
            seed=task.seed,
            instrumentation=instr,
            engine=task.engine,
        )
    finally:
        if relay is not None:
            relay.close()
    return RestartOutcome(
        seed=task.seed,
        result=result,
        snapshot=instr.snapshot(),
        events=tuple(recorder.events) if recorder is not None else (),
    )


def select_best(outcomes: list[RestartOutcome]) -> RestartOutcome:
    """Reduce restarts to the winner under the ``(energy, seed)`` order.

    Energy ties (identical placements found from different seeds are
    common on small grids) break towards the *smallest derived seed* —
    a total order, so any permutation of *outcomes* yields the same
    winner.
    """
    if not outcomes:
        raise PlacementError("no restart outcomes to reduce")
    return min(outcomes, key=lambda o: (o.result.energy, o.seed))


def anneal_multistart(
    grid: ChipGrid,
    footprints: dict[str, tuple[int, int]],
    priorities: ConnectionPriorities,
    parameters: AnnealingParameters | None = None,
    base_seed: int = 0,
    restarts: int = 1,
    jobs: int = 1,
    engine: str = "incremental",
    instrumentation: Instrumentation | None = None,
    seed_derivation: str = "splitmix",
) -> AnnealingResult:
    """Best of *restarts* independent anneals, fanned out over *jobs*.

    Determinism contract: the returned result depends only on
    ``(base_seed, restarts)`` — never on ``jobs`` —
    and ``restarts=1, jobs=1`` is the unmodified single-anneal path,
    unless a live monitor listens: its heartbeats ride the restart path,
    whose one restart keeps the base seed.
    """
    monitor = active_monitor()
    if restarts == 1 and jobs == 1 and monitor is None:
        return anneal_placement(
            grid,
            footprints,
            priorities,
            parameters=parameters,
            seed=base_seed,
            instrumentation=instrumentation,
            engine=engine,
        )
    params = parameters or AnnealingParameters()
    capture = instrumentation is not None and instrumentation.active
    capture_names = instrumentation.sink.subscribed if capture else None
    if capture_names is not None and not capture_names:
        capture = False
    dispatch_t = instrumentation.now() if instrumentation is not None else 0.0
    seeds = multistart_seeds(base_seed, restarts, seed_derivation)
    tasks = [
        _AnnealTask(
            grid=grid,
            footprints=footprints,
            priorities=priorities,
            parameters=params,
            seed=seed,
            engine=engine,
            index=index,
            capture_events=capture,
            capture_names=capture_names,
            live=monitor is not None,
        )
        for index, seed in enumerate(seeds)
    ]
    # Pool workers keep the monitor's pipe from the initializer; an
    # inline run (one worker) finds it through the monitor itself.
    sender = monitor.pipe.sender if monitor is not None else None
    with PoolSession(
        jobs=min(resolve_jobs(jobs), len(tasks)),
        initializer=install_beats,
        initargs=(sender,),
    ) as session:
        outcomes = session.run(_run_anneal_task, tasks)
    if instrumentation is not None:
        # Absorb in seed order (submission order); the worker-rank rule
        # makes the merged gauges order-independent anyway, and counter/
        # histogram merges are commutative by construction.
        for index, outcome in enumerate(outcomes):
            instrumentation.absorb(outcome.snapshot, worker=index)
            instrumentation.count("sa.restarts")
            instrumentation.event(
                "sa.restart",
                seed=outcome.seed,
                energy=outcome.result.energy,
                initial_energy=outcome.result.initial_energy,
                accepted_moves=outcome.result.accepted_moves,
            )
        if capture:
            # Replay every worker's event stream into the parent sink,
            # shifted from the worker's epoch to the dispatch instant so
            # merged timestamps are monotone with the parent's.  Events
            # already carry their worker index from the worker-side
            # instrumentation.
            sink = instrumentation.sink
            for outcome in outcomes:
                for event in outcome.events:
                    sink.emit(
                        dataclass_replace(event, time=event.time + dispatch_t)
                    )
    return select_best(outcomes).result
