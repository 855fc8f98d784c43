"""Hierarchical spans, counters, and gauges.

:class:`Instrumentation` is the single object threaded through the
synthesis pipeline.  It always maintains cheap in-memory aggregates —
per-span-path wall-clock totals, counter totals, last gauge values — and
*additionally* streams structured events to its sink unless the sink is
a :class:`~repro.obs.sinks.NullSink` (the default), in which case no
event objects are constructed at all.  A sink that subscribes to a few
names (:attr:`~repro.obs.sinks.Sink.subscribed`) gets events for those
names only, and no other event is built.

Usage::

    instr = Instrumentation()              # aggregates only, no events
    with instr.span("synthesize"):
        with instr.span("place") as place:
            instr.count("sa.moves_accepted", 12)
            instr.event("sa.step", temperature=100.0, energy=42.0)
        print(place.duration)
    print(instr.phase_times(("synthesize",)))   # {"place": ...}
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.obs.events import Event
from repro.obs.histogram import Histogram
from repro.obs.sinks import NullSink, Sink

__all__ = ["Instrumentation", "InstrumentationSnapshot", "Span"]


@dataclass(frozen=True)
class InstrumentationSnapshot:
    """Picklable aggregate state of an :class:`Instrumentation`.

    This is how telemetry crosses a process boundary: a worker runs with
    its own instrumentation, ships ``snapshot()`` back as data, and the
    parent folds it in with :meth:`Instrumentation.absorb`.  Only the
    cheap aggregates travel — span wall-clock totals and run counts,
    counter totals, last gauge values, histogram buckets — never live
    event streams.
    """

    span_totals: dict[tuple[str, ...], float]
    span_counts: dict[tuple[str, ...], int]
    counters: dict[str, float]
    gauges: dict[str, float]
    histograms: dict[str, Histogram] = field(default_factory=dict)


@dataclass
class Span:
    """Handle for one open (or finished) phase timer."""

    name: str
    span_id: int
    parent_id: int | None
    #: Full path from the root span, e.g. ``("synthesize", "place")``.
    path: tuple[str, ...]
    started: float
    #: Wall-clock duration in seconds; set when the span closes.
    duration: float | None = None
    _now: Callable[[], float] = field(default=time.perf_counter, repr=False)

    def elapsed(self) -> float:
        """Seconds since the span started (usable while still open)."""
        return (self._now() - self.started) if self.duration is None else self.duration

    @property
    def label(self) -> str:
        return " > ".join(self.path)


class Instrumentation:
    """Span timers + counters/gauges + optional event stream.

    Parameters
    ----------
    sink:
        Event destination; ``None`` means :class:`NullSink` — aggregates
        are still kept, but no events are built or emitted.  Events are
        built only for the names in the sink's ``subscribed`` set (all
        names when it is ``None``); aggregates never depend on the sink.
    clock:
        Monotonic time source (seconds).  Injectable for deterministic
        tests; defaults to :func:`time.perf_counter`.
    worker:
        Pool-worker index stamped on every emitted event, so merged
        multi-worker traces stay unambiguous (span ids are only unique
        per worker).  ``None`` (the default) marks the main process.
    """

    def __init__(
        self,
        sink: Sink | None = None,
        clock: Callable[[], float] = time.perf_counter,
        worker: int | None = None,
    ) -> None:
        self.sink: Sink = sink if sink is not None else NullSink()
        #: True when events flow to the sink; NullSink (and subclasses)
        #: short-circuit every emission with this single flag.
        self.active: bool = not isinstance(self.sink, NullSink)
        #: Names the sink reads (``None`` = all), read once: an active
        #: instrumentation builds events only for these names.
        self._subscribed = self.sink.subscribed
        self.worker = worker
        self._clock = clock
        self._epoch = clock()
        self._stack: list[Span] = []
        self._next_id = 1
        self._span_totals: dict[tuple[str, ...], float] = {}
        self._span_counts: dict[tuple[str, ...], int] = {}
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # Time
    # ------------------------------------------------------------------
    def now(self) -> float:
        """Seconds since this instrumentation was created."""
        return self._clock() - self._epoch

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------
    def _emit(
        self,
        kind: str,
        name: str,
        fields: dict[str, Any],
        span: Span | None,
        at: float | None = None,
    ) -> None:
        """Build one event stamped with *span*'s ids and send it.

        *at* is the event time (default: now).
        """
        self.sink.emit(
            Event(
                kind=kind,
                name=name,
                time=self.now() if at is None else at,
                span_id=span.span_id if span else None,
                parent_id=span.parent_id if span else None,
                fields=fields,
                worker=self.worker,
            )
        )

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    @property
    def current_span(self) -> Span | None:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """Open a nested phase timer for the duration of the ``with`` body."""
        parent = self.current_span
        handle = Span(
            name=name,
            span_id=self._next_id,
            parent_id=parent.span_id if parent is not None else None,
            path=(parent.path + (name,)) if parent is not None else (name,),
            started=self.now(),
            _now=self.now,
        )
        self._next_id += 1
        self._stack.append(handle)
        # Seed the totals at first open so aggregate iteration order is
        # chronological (parents before children) for tree rendering.
        self._span_totals.setdefault(handle.path, 0.0)
        emits = self.active and (
            self._subscribed is None or name in self._subscribed
        )
        if emits:
            self._emit("span_start", name, {}, handle, handle.started)
        try:
            yield handle
        finally:
            ended = self.now()
            handle.duration = ended - handle.started
            self._stack.pop()
            self._span_totals[handle.path] += handle.duration
            self._span_counts[handle.path] = (
                self._span_counts.get(handle.path, 0) + 1
            )
            if emits:
                self._emit(
                    "span_end", name, {"duration": handle.duration}, handle,
                    ended,
                )

    # ------------------------------------------------------------------
    # Counters / gauges / point events
    # ------------------------------------------------------------------
    def count(self, name: str, delta: float = 1) -> None:
        """Add *delta* to counter *name* (creates it at zero)."""
        total = self._counters.get(name, 0) + delta
        self._counters[name] = total
        if self.active and (
            self._subscribed is None or name in self._subscribed
        ):
            self._emit(
                "counter", name, {"delta": delta, "total": total},
                self.current_span,
            )

    def gauge(self, name: str, value: float) -> None:
        """Sample gauge *name* at *value* (last value wins in aggregates)."""
        self._gauges[name] = value
        if self.active and (
            self._subscribed is None or name in self._subscribed
        ):
            self._emit("gauge", name, {"value": value}, self.current_span)

    def observe(self, name: str, value: float) -> None:
        """Record *value* into the log-bucket histogram *name*.

        Histograms are the latency-distribution metric kind: they keep
        exact count/sum/min/max and bucketed p50/p90/p99 (see
        :class:`~repro.obs.histogram.Histogram`), are always maintained
        in memory like counters, and additionally stream a
        ``histogram`` event per observation when the sink is live.
        """
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram()
        histogram.record(value)
        if self.active and (
            self._subscribed is None or name in self._subscribed
        ):
            self._emit("histogram", name, {"value": value}, self.current_span)

    def event(self, name: str, **fields: Any) -> None:
        """Emit a free-form point event (no-op with a :class:`NullSink`
        or a sink that does not subscribe to *name*)."""
        if self.active and (
            self._subscribed is None or name in self._subscribed
        ):
            self._emit("point", name, fields, self.current_span)

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    @property
    def counters(self) -> dict[str, float]:
        """Counter totals accumulated so far (a copy)."""
        return dict(self._counters)

    @property
    def gauges(self) -> dict[str, float]:
        """Last sampled value of every gauge (a copy)."""
        return dict(self._gauges)

    @property
    def histograms(self) -> dict[str, Histogram]:
        """Every histogram recorded so far (a shallow copy of the map)."""
        return dict(self._histograms)

    def histogram(self, name: str) -> Histogram | None:
        """The histogram called *name*, or ``None`` if never observed."""
        return self._histograms.get(name)

    def histogram_summaries(self, digits: int = 6) -> dict[str, dict]:
        """Percentile summaries of every histogram (ledger/report form)."""
        return {
            name: histogram.summary(digits)
            for name, histogram in self._histograms.items()
        }

    def span_totals(self) -> dict[tuple[str, ...], float]:
        """Accumulated wall-clock seconds per span path (a copy)."""
        return dict(self._span_totals)

    def span_seconds(self, path: tuple[str, ...] | str) -> float:
        """Total seconds spent in the span at *path* (0.0 if never run)."""
        if isinstance(path, str):
            path = (path,)
        return self._span_totals.get(tuple(path), 0.0)

    def phase_times(
        self, parent: tuple[str, ...] | str | None = None
    ) -> dict[str, float]:
        """Durations of the direct child spans of *parent*.

        ``parent=None`` returns the root spans.  Keys are leaf span
        names; values accumulate across repeated runs of the same phase.
        """
        if parent is None:
            prefix: tuple[str, ...] = ()
        elif isinstance(parent, str):
            prefix = (parent,)
        else:
            prefix = tuple(parent)
        depth = len(prefix) + 1
        return {
            path[-1]: seconds
            for path, seconds in self._span_totals.items()
            if len(path) == depth and path[: len(prefix)] == prefix
        }

    def span_counts(self) -> dict[tuple[str, ...], int]:
        """Number of completed runs per span path (a copy)."""
        return dict(self._span_counts)

    # ------------------------------------------------------------------
    # Cross-process merge
    # ------------------------------------------------------------------
    def snapshot(self) -> InstrumentationSnapshot:
        """Freeze the current aggregates into a picklable snapshot.

        Histograms are deep-copied so the snapshot stays immutable even
        when the child keeps recording (or when, on the inline
        ``jobs=1`` path, parent and child share a process).
        """
        return InstrumentationSnapshot(
            span_totals=dict(self._span_totals),
            span_counts=dict(self._span_counts),
            counters=dict(self._counters),
            gauges=dict(self._gauges),
            histograms={
                name: histogram.copy()
                for name, histogram in self._histograms.items()
            },
        )

    def absorb(self, snapshot: InstrumentationSnapshot) -> None:
        """Fold a child instrumentation's aggregates into this one.

        Span totals, run counts and counters are added, histograms are
        bucket-merged, and gauges are last-absorbed-wins, exactly as if
        the child had sampled them here.  So absorbing snapshots in
        submission order gives the same aggregates for every worker
        count.  No events are emitted — the merge is aggregate
        bookkeeping only.
        """
        for path, seconds in snapshot.span_totals.items():
            self._span_totals[path] = self._span_totals.get(path, 0.0) + seconds
        for path, runs in snapshot.span_counts.items():
            self._span_counts[path] = self._span_counts.get(path, 0) + runs
        for name, total in snapshot.counters.items():
            self._counters[name] = self._counters.get(name, 0) + total
        for name, histogram in snapshot.histograms.items():
            mine = self._histograms.get(name)
            if mine is None:
                self._histograms[name] = histogram.copy()
            else:
                mine.merge(histogram)
        self._gauges.update(snapshot.gauges)
