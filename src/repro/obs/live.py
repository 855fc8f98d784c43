"""Live multi-start progress: worker heartbeats over a queue.

When restarts fan out across a process pool, the parent is blind until
the pool drains — every worker's SA trajectory is invisible.  This
module gives each worker a tiny, throttled side-channel:

* :class:`HeartbeatRelay` is a :class:`~repro.obs.Sink` installed in
  the *worker*.  It watches the ordinary event stream — the annealer's
  ``sa.step`` convergence events and the router's ``route.task`` events
  — and forwards at most one :class:`Heartbeat` per ``interval``
  seconds onto a ``multiprocessing`` queue.  Sending is best-effort:
  a full or torn-down queue never crashes the computation.
* :class:`HeartbeatSpec` is the picklable recipe for a relay (queue
  proxy + worker index + seed + interval) that travels inside the pool
  payload and is built *inside* the worker.
* :class:`LiveProgressMonitor` runs in the parent: a consumer thread
  drains the queue, keeps the latest state per worker, renders a
  single refreshing progress line (``--live``), collects convergence
  checkpoints for the run ledger, and optionally republishes each
  heartbeat as a ``live.heartbeat`` point event into the parent's
  instrumentation so heartbeats land in ``--trace`` files too.

The monitor registers itself in a module-level slot
(:func:`active_monitor`) so :func:`repro.parallel.multistart.anneal_multistart`
can discover it without widening every signature between the CLI and
the pool; the slot is process-local and cleared on :meth:`~LiveProgressMonitor.stop`.

Heartbeats are *telemetry*, never inputs: results and merged profiles
stay bit-identical with the channel on or off.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import IO, Any, Mapping

from repro.obs.events import Event
from repro.obs.instrument import Instrumentation
from repro.obs.sinks import Sink

__all__ = [
    "Heartbeat",
    "HeartbeatRelay",
    "HeartbeatSpec",
    "LiveProgressMonitor",
    "active_monitor",
    "install_monitor",
]

#: Event names a relay translates into heartbeats.
_WATCHED_EVENTS = frozenset({"sa.step", "route.task"})

#: Default minimum seconds between two heartbeats from one worker.
DEFAULT_HEARTBEAT_INTERVAL = 0.25

#: Cap on retained convergence checkpoints per worker (ledger payload).
MAX_CHECKPOINTS_PER_WORKER = 100


@dataclass(frozen=True)
class Heartbeat:
    """One progress sample from one worker (picklable queue payload).

    ``t`` is seconds since the worker's instrumentation epoch; ``kind``
    is ``"sa"`` (annealing progress), ``"route"`` (routing progress),
    or ``"done"`` (the relay closed — final state, never throttled).
    """

    worker: int
    seed: int
    kind: str
    t: float
    fields: Mapping[str, Any] = field(default_factory=dict)
    #: Optional name of the work item (the service stamps its job id and
    #: routes beats to that job's event log by it); empty renders the
    #: plain ``w<worker>`` form.
    label: str = ""


class HeartbeatRelay(Sink):
    """Worker-side sink translating pipeline events into heartbeats.

    Watches ``sa.step`` and ``route.task`` point events, forwarding at
    most one heartbeat per *interval* seconds (per relay).  Designed to
    sit inside a :class:`~repro.obs.TeeSink` next to a recording or
    JSONL sink, or alone when only liveness is wanted.  Alone, it
    subscribes to those two names, so its instrumentation builds no
    other event.

    *queue* is anything with ``put_nowait(beat)``: a manager queue
    proxy (the CLI's ``--live``) or the service's heartbeat pipe
    (:class:`repro.serve.executor.BeatPipe`).
    """

    subscribed = _WATCHED_EVENTS

    def __init__(
        self,
        queue: Any,
        worker: int,
        seed: int,
        interval: float = DEFAULT_HEARTBEAT_INTERVAL,
        clock: Any = time.monotonic,
        label: str = "",
    ) -> None:
        self.queue = queue
        self.worker = worker
        self.seed = seed
        self.label = label
        self.interval = interval
        self._clock = clock
        self._last_sent = -float("inf")
        #: Latest watched event; its beat is built only when sent.
        self._last_event: Event | None = None
        self._routed = 0
        self.sent = 0

    def _send(self, beat: Heartbeat) -> None:
        try:
            self.queue.put_nowait(beat)
            self.sent += 1
        except Exception:
            # A full queue or pipe, or a parent that already tore the
            # channel down, must never take the worker's computation
            # with it: the beat is dropped.
            pass

    def _beat(self, event: Event, kind: str | None = None) -> Heartbeat:
        if event.name == "sa.step":
            fields = dict(event.fields)
        else:
            fields = {"tasks_routed": self._routed, **event.fields}
        return Heartbeat(
            worker=self.worker,
            seed=self.seed,
            kind=kind or ("sa" if event.name == "sa.step" else "route"),
            t=event.time,
            fields=fields,
            label=self.label,
        )

    def emit(self, event: Event) -> None:
        if event.kind != "point" or event.name not in _WATCHED_EVENTS:
            return
        if event.name == "route.task":
            self._routed += 1
        self._last_event = event
        now = self._clock()
        if now - self._last_sent >= self.interval:
            self._last_sent = now
            self._send(self._beat(event))

    def close(self) -> None:
        """Send the final (unthrottled) state as a ``done`` heartbeat."""
        last = self._last_event
        self._send(
            self._beat(last, kind="done")
            if last is not None
            else Heartbeat(
                worker=self.worker, seed=self.seed, kind="done", t=0.0,
                label=self.label,
            )
        )


@dataclass(frozen=True)
class HeartbeatSpec:
    """Picklable recipe for a worker's :class:`HeartbeatRelay`.

    Travels inside the pool payload (the queue must be a picklable
    proxy, e.g. ``multiprocessing.Manager().Queue()``); the relay
    itself is built inside the worker via :meth:`build`.
    """

    queue: Any
    worker: int
    seed: int
    interval: float = DEFAULT_HEARTBEAT_INTERVAL
    label: str = ""

    def build(self) -> HeartbeatRelay:
        return HeartbeatRelay(
            self.queue, worker=self.worker, seed=self.seed,
            interval=self.interval, label=self.label,
        )


class LiveProgressMonitor:
    """Parent-side heartbeat consumer: progress line + ledger checkpoints.

    Parameters
    ----------
    stream:
        Text stream for the refreshing progress line (e.g.
        ``sys.stderr``); ``None`` disables rendering but still collects
        state and checkpoints.
    instrumentation:
        Optional parent instrumentation; every heartbeat is republished
        into it as a ``live.heartbeat`` point event (visible in
        ``--trace`` files).
    interval:
        Heartbeat throttle handed to every :meth:`spec_for` relay.
    queue:
        Injectable queue for tests / inline runs; ``None`` lazily
        creates a ``multiprocessing.Manager().Queue()`` on
        :meth:`start` (the proxy survives pickling into pool workers).
    """

    def __init__(
        self,
        stream: IO[str] | None = None,
        instrumentation: Instrumentation | None = None,
        interval: float = DEFAULT_HEARTBEAT_INTERVAL,
        queue: Any = None,
    ) -> None:
        self.stream = stream
        self.instrumentation = instrumentation
        self.interval = interval
        self.queue = queue
        self.state: dict[int, Heartbeat] = {}
        self.received = 0
        self._checkpoints: dict[int, list[dict[str, Any]]] = {}
        self._manager: Any = None
        self._thread: threading.Thread | None = None
        self._rendered = False
        self._lock = threading.Lock()

    # -- channel wiring -------------------------------------------------
    def spec_for(self, worker: int, seed: int) -> HeartbeatSpec:
        """The picklable relay recipe for pool worker *worker*."""
        if self.queue is None:
            raise RuntimeError("monitor not started: no heartbeat queue yet")
        return HeartbeatSpec(
            queue=self.queue, worker=worker, seed=seed,
            interval=self.interval,
        )

    # -- lifecycle ------------------------------------------------------
    def start(self) -> "LiveProgressMonitor":
        if self._thread is not None:
            return self
        if self.queue is None:
            import multiprocessing

            self._manager = multiprocessing.Manager()
            self.queue = self._manager.Queue()
        self._thread = threading.Thread(
            target=self._consume, name="repro-live-progress", daemon=True
        )
        self._thread.start()
        install_monitor(self)
        return self

    def stop(self) -> None:
        """Drain the queue, stop the thread, release the manager."""
        thread, self._thread = self._thread, None
        if thread is None:
            return
        try:
            self.queue.put(None)  # sentinel
        except Exception:
            pass
        thread.join(timeout=5.0)
        if self._rendered and self.stream is not None:
            self.stream.write("\n")
            self.stream.flush()
        if self._manager is not None:
            self._manager.shutdown()
            self._manager = None
            self.queue = None
        install_monitor(None, expected=self)

    def __enter__(self) -> "LiveProgressMonitor":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # -- consumption ----------------------------------------------------
    def _consume(self) -> None:
        import queue as queue_module

        while True:
            try:
                beat = self.queue.get(timeout=0.2)
            except queue_module.Empty:
                continue
            except Exception:
                return  # queue torn down
            if beat is None:
                return
            if isinstance(beat, Heartbeat):
                self._handle(beat)

    def _handle(self, beat: Heartbeat) -> None:
        with self._lock:
            self.received += 1
            self.state[beat.worker] = beat
            points = self._checkpoints.setdefault(beat.worker, [])
            points.append(
                {
                    "worker": beat.worker,
                    "seed": beat.seed,
                    "kind": beat.kind,
                    "t": round(beat.t, 6),
                    **{
                        k: v
                        for k, v in beat.fields.items()
                        if isinstance(v, (int, float, str, bool))
                    },
                }
            )
            if len(points) > MAX_CHECKPOINTS_PER_WORKER:
                del points[: len(points) - MAX_CHECKPOINTS_PER_WORKER]
        if self.instrumentation is not None and self.instrumentation.active:
            self.instrumentation.event(
                "live.heartbeat",
                worker=beat.worker,
                seed=beat.seed,
                state=beat.kind,
                **dict(beat.fields),
            )
        self.render()

    # -- presentation / ledger ------------------------------------------
    def _describe(self, beat: Heartbeat) -> str:
        fields = beat.fields
        who = beat.label or f"w{beat.worker}"
        if beat.kind == "done":
            energy = fields.get("energy") or fields.get("best_energy")
            suffix = f" E={energy:.1f}" if isinstance(energy, (int, float)) else ""
            return f"{who} done{suffix}"
        if beat.kind == "sa":
            t = fields.get("temperature")
            e = fields.get("best_energy", fields.get("energy"))
            t_part = f" T={t:.3g}" if isinstance(t, (int, float)) else ""
            e_part = f" E={e:.1f}" if isinstance(e, (int, float)) else ""
            return f"{who} sa{t_part}{e_part}"
        routed = fields.get("tasks_routed")
        return f"{who} route n={routed}"

    def render(self) -> None:
        """Rewrite the single live progress line (if a stream is set)."""
        if self.stream is None:
            return
        with self._lock:
            parts = [
                self._describe(beat)
                for _, beat in sorted(self.state.items())
            ]
        line = "live: " + " | ".join(parts) if parts else "live: waiting…"
        self.stream.write("\r" + line.ljust(78))
        self.stream.flush()
        self._rendered = True

    def checkpoints(self) -> list[dict[str, Any]]:
        """All retained convergence checkpoints, worker-major (ledger form)."""
        with self._lock:
            return [
                dict(point)
                for worker in sorted(self._checkpoints)
                for point in self._checkpoints[worker]
            ]


# ----------------------------------------------------------------------
# Module-level channel registry
# ----------------------------------------------------------------------
_ACTIVE_MONITOR: LiveProgressMonitor | None = None


def install_monitor(
    monitor: LiveProgressMonitor | None,
    expected: LiveProgressMonitor | None = None,
) -> None:
    """Set (or clear) the process-wide live monitor slot.

    With *expected* given, the slot is only cleared when it still holds
    that monitor — so a stale ``stop()`` cannot evict a newer monitor.
    """
    global _ACTIVE_MONITOR
    if monitor is None and expected is not None and _ACTIVE_MONITOR is not expected:
        return
    _ACTIVE_MONITOR = monitor


def active_monitor() -> LiveProgressMonitor | None:
    """The currently installed live monitor, if any."""
    return _ACTIVE_MONITOR
