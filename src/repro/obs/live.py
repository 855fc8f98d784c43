"""Live progress: worker heartbeats over one lock-free pipe.

When restarts fan out across a process pool, or a service job runs in
a pool worker, the parent is blind until the work returns.  This
module gives each worker a tiny, throttled side-channel, shared by the
CLI's ``--live`` and the synthesis service:

* :class:`HeartbeatRelay` is a :class:`~repro.obs.Sink` installed in
  the *worker*.  It watches the ordinary event stream — the annealer's
  ``sa.step`` convergence events and the router's ``route.task`` events
  — and forwards at most one :class:`Heartbeat` per ``interval``
  seconds.  Sending is best-effort: a full or torn-down channel never
  crashes the computation.
* :class:`BeatPipe` is the channel: a non-blocking OS pipe whose write
  end (:class:`BeatSender`) pool workers inherit through the pool
  initializer :func:`install_beats`, and whose read end the parent
  drains with :meth:`BeatPipe.pump`, the one read loop both consumers
  share.  Writing a beat takes no lock, so a worker killed mid-beat
  cannot wedge the channel.
* :class:`LiveProgressMonitor` runs in the parent of a ``--live`` run:
  it owns a pipe, pumps it on a thread, keeps the latest state per
  worker, renders a single refreshing progress line, collects
  convergence checkpoints for the run ledger, and optionally
  republishes each heartbeat as a ``live.heartbeat`` point event into
  the parent's instrumentation so heartbeats land in ``--trace`` files
  too.

The monitor registers itself in a module-level slot
(:func:`active_monitor`) so :func:`repro.parallel.multistart.anneal_multistart`
can discover it without widening every signature between the CLI and
the pool; the slot is process-local and cleared on :meth:`~LiveProgressMonitor.stop`.

Heartbeats are *telemetry*, never inputs: results and merged profiles
stay bit-identical with the channel on or off.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import queue
import select
import struct
import threading
import time
from dataclasses import dataclass, field
from typing import IO, Any, Callable, Mapping

from repro.obs.events import Event
from repro.obs.instrument import Instrumentation
from repro.obs.sinks import Sink

__all__ = [
    "BeatPipe",
    "BeatSender",
    "Heartbeat",
    "HeartbeatRelay",
    "LiveProgressMonitor",
    "active_monitor",
    "install_beats",
    "install_monitor",
    "installed_beats",
]

#: Event names a relay translates into heartbeats.
_WATCHED_EVENTS = frozenset({"sa.step", "route.task"})

#: Default minimum seconds between two heartbeats from one worker.
DEFAULT_HEARTBEAT_INTERVAL = 0.25

#: Cap on retained convergence checkpoints per worker (ledger payload).
MAX_CHECKPOINTS_PER_WORKER = 100


@dataclass(frozen=True)
class Heartbeat:
    """One progress sample from one worker (picklable pipe payload).

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

    *queue* is anything with ``put_nowait(beat)``: in practice the
    write end of a :class:`BeatPipe`.
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


#: Length header of one beat frame on a :class:`BeatPipe`.
_FRAME = struct.Struct("!I")


class BeatSender:
    """Write end of a :class:`BeatPipe`: the queue a relay puts beats on.

    :meth:`put_nowait` pickles the beat and sends it, length header
    included, as one ``os.write`` of at most ``PIPE_BUF`` bytes on a
    non-blocking pipe.  POSIX makes such a write atomic: it never
    interleaves with another process's beat and never blocks, and it
    takes no lock that a worker killed mid-write could leave held.  A
    full pipe or an oversized beat raises :class:`queue.Full`, which
    the relay treats as a dropped beat.
    """

    def __init__(self, connection: Any) -> None:
        #: ``multiprocessing`` connection, so the end survives pickling
        #: into a spawned worker as well as fork inheritance.
        self.connection = connection

    def put_nowait(self, beat: Any) -> None:
        data = pickle.dumps(beat, pickle.HIGHEST_PROTOCOL)
        frame = _FRAME.pack(len(data)) + data
        if len(frame) > select.PIPE_BUF:
            raise queue.Full(f"beat of {len(frame)} bytes exceeds PIPE_BUF")
        try:
            os.write(self.connection.fileno(), frame)
        except BlockingIOError:
            raise queue.Full("beat pipe full") from None


class BeatPipe:
    """The one heartbeat channel: workers to the parent process.

    Created before the pool; workers keep :attr:`sender` through the
    pool initializer (:func:`install_beats`), and the parent's pump
    thread runs :meth:`pump`.  Shutdown wakes the pump with
    :meth:`wake`.
    """

    def __init__(self) -> None:
        reader, writer = multiprocessing.Pipe(duplex=False)
        os.set_blocking(writer.fileno(), False)
        self.reader = reader
        self.sender = BeatSender(writer)

    def get(self) -> Any:
        """The next beat, blocking until one arrives (``None`` is the
        :meth:`wake` sentinel).  Raises :class:`EOFError` once every
        write end is closed."""
        (size,) = _FRAME.unpack(self._read(_FRAME.size))
        return pickle.loads(self._read(size))

    def _read(self, size: int) -> bytes:
        data = b""
        while len(data) < size:
            chunk = os.read(self.reader.fileno(), size - len(data))
            if not chunk:
                raise EOFError("beat pipe closed")
            data += chunk
        return data

    def pump(self, handle: Callable[[Heartbeat], None]) -> None:
        """Hand every beat to *handle* until the :meth:`wake` sentinel
        or until the pipe is torn down (blocking; run it on a thread)."""
        while True:
            try:
                beat = self.get()
            except (EOFError, OSError):
                return
            if beat is None:
                return
            if isinstance(beat, Heartbeat):
                handle(beat)

    def wake(self, timeout: float = 5.0) -> None:
        """Send the sentinel that ends a blocked :meth:`get`, waiting up
        to *timeout* seconds for room while the pipe is full."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                self.sender.put_nowait(None)
                return
            except queue.Full:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return
                select.select(
                    [], [self.sender.connection.fileno()], [], remaining
                )

    def close(self) -> None:
        self.reader.close()
        self.sender.connection.close()


#: This pool worker's beat-pipe write end (set by :func:`install_beats`).
_worker_beats: BeatSender | None = None


def install_beats(sender: BeatSender | None) -> None:
    """Pool initializer: keep the inherited beat pipe for every task."""
    global _worker_beats
    _worker_beats = sender


def installed_beats() -> BeatSender | None:
    """This process's beat sender: the one :func:`install_beats` kept in
    a pool worker, else the active monitor's (inline runs), else
    ``None``."""
    if _worker_beats is not None:
        return _worker_beats
    monitor = active_monitor()
    if monitor is None or monitor.pipe is None:
        return None
    return monitor.pipe.sender


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
    """

    def __init__(
        self,
        stream: IO[str] | None = None,
        instrumentation: Instrumentation | None = None,
    ) -> None:
        self.stream = stream
        self.instrumentation = instrumentation
        #: The heartbeat channel, open between :meth:`start` and
        #: :meth:`stop`.
        self.pipe: BeatPipe | None = None
        self.state: dict[int, Heartbeat] = {}
        self.received = 0
        self._checkpoints: dict[int, list[dict[str, Any]]] = {}
        self._thread: threading.Thread | None = None
        self._rendered = False
        self._lock = threading.Lock()

    # -- lifecycle ------------------------------------------------------
    def start(self) -> "LiveProgressMonitor":
        if self._thread is not None:
            return self
        self.pipe = BeatPipe()
        self._thread = threading.Thread(
            target=self.pipe.pump, args=(self._handle,),
            name="repro-live-progress", daemon=True,
        )
        self._thread.start()
        install_monitor(self)
        return self

    def stop(self) -> None:
        """Drain the pipe, stop the pump thread, close the pipe."""
        thread, self._thread = self._thread, None
        if thread is None:
            return
        install_monitor(None, expected=self)
        pipe, self.pipe = self.pipe, None
        # Beats already written sit ahead of the sentinel, so the pump
        # hands them all on before it returns.
        pipe.wake()
        thread.join(timeout=5.0)
        if not thread.is_alive():
            # A pump still blocked in a read keeps its descriptor: a
            # closed one could be reused and read by it.
            pipe.close()
        if self._rendered and self.stream is not None:
            self.stream.write("\n")
            self.stream.flush()

    def __enter__(self) -> "LiveProgressMonitor":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # -- consumption ----------------------------------------------------
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
