"""Event sinks: where instrumentation events go.

* :class:`NullSink` — the zero-overhead default.  An
  :class:`~repro.obs.instrument.Instrumentation` built on it never
  constructs :class:`~repro.obs.events.Event` objects at all (it checks
  the sink type once, up front), so the fully-instrumented pipeline pays
  only for its in-memory counter/timer bookkeeping.
* :class:`JsonlSink` — streams one JSON object per event to a file;
  this is what the CLI's ``--trace PATH.jsonl`` flag installs.
* :class:`RecordingSink` — keeps events in a list with small query
  helpers; intended for tests and interactive inspection.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import IO, Iterable

from repro.obs.events import Event

__all__ = [
    "Sink",
    "NullSink",
    "JsonlSink",
    "RecordingSink",
    "TeeSink",
    "read_jsonl",
]


class Sink:
    """Interface every sink implements.

    Sinks are context managers so callers can write
    ``with JsonlSink(path) as sink: ...`` and be sure the stream is
    flushed; :meth:`close` is idempotent.

    :attr:`subscribed` names the events a sink reads.  An
    :class:`~repro.obs.instrument.Instrumentation` reads it once and
    builds an :class:`Event` only for a name in the set, so a sink that
    watches two names does not pay for the rest of the stream.
    ``None`` (the default) means every name.  It is usually fixed per
    class; a sink whose reading depends on its use sets it per instance
    before any instrumentation is built on it.
    """

    subscribed: frozenset[str] | None = None

    def emit(self, event: Event) -> None:
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - default no-op
        pass

    def __enter__(self) -> "Sink":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class NullSink(Sink):
    """Discard everything.

    The instrumentation layer special-cases this type (including
    subclasses): when the sink is a ``NullSink`` no events are built or
    emitted, making it safe to leave instrumentation permanently wired
    into hot paths.
    """

    def emit(self, event: Event) -> None:  # pragma: no cover - never called
        pass


class RecordingSink(Sink):
    """In-memory sink with query helpers, for tests."""

    def __init__(self) -> None:
        self.events: list[Event] = []

    def emit(self, event: Event) -> None:
        self.events.append(event)

    def clear(self) -> None:
        self.events.clear()

    def of_kind(self, kind: str) -> list[Event]:
        """All recorded events of one kind (e.g. ``"span_end"``)."""
        return [e for e in self.events if e.kind == kind]

    def named(self, name: str) -> list[Event]:
        """All recorded events carrying exactly this name."""
        return [e for e in self.events if e.name == name]

    def names(self) -> set[str]:
        return {e.name for e in self.events}


class JsonlSink(Sink):
    """Stream events as JSON Lines to a path or open text stream.

    When given a path the file is opened on construction and owned by
    the sink (closed by :meth:`close`); an already-open stream is
    borrowed and left open.

    Robustness guarantees for production traces:

    * Writes are serialised under a lock and each event goes out as
      **one** ``write()`` call (line plus newline), so concurrent
      emitters inside one process — e.g. the resource-sampler and
      live-progress threads alongside the pipeline — never interleave
      half-lines (``TextIOWrapper.write`` alone is not atomic: the
      underlying buffer can tear racing writes apart).
    * The stream is flushed whenever a **root span ends**, so even a
      run that crashes later (and never reaches :meth:`close`) leaves a
      parseable trace prefix covering every completed top-level phase.
    * Non-JSON-serialisable field values degrade to their ``repr()``
      instead of poisoning the whole line — a diagnostic payload must
      never be the thing that kills the run being diagnosed.
    """

    def __init__(self, target: str | Path | IO[str]) -> None:
        if isinstance(target, (str, Path)):
            self._stream: IO[str] = open(target, "w", encoding="utf-8")
            self._owns_stream = True
        else:
            self._stream = target
            self._owns_stream = False
        self.emitted = 0
        self._lock = threading.Lock()

    def emit(self, event: Event) -> None:
        record = event.to_json()
        try:
            line = json.dumps(record, sort_keys=True)
        except (TypeError, ValueError):
            line = json.dumps(record, sort_keys=True, default=repr)
        with self._lock:
            self._stream.write(line + "\n")
            self.emitted += 1
            if event.kind == "span_end" and event.parent_id is None:
                self._stream.flush()

    def close(self) -> None:
        if self._owns_stream and not self._stream.closed:
            self._stream.close()
        elif not self._owns_stream:
            self._stream.flush()


class TeeSink(Sink):
    """Fan every event out to several child sinks, in order.

    Used to combine a persistent sink (e.g. :class:`JsonlSink` behind
    ``--trace``) with a transient consumer (e.g. the live-progress
    heartbeat relay of :mod:`repro.obs.live`).  Closing the tee closes
    every child; children that share ownership semantics keep them.
    The tee subscribes to every name, so its children see the whole
    stream whatever they subscribe to.
    """

    def __init__(self, *sinks: Sink) -> None:
        self.sinks: tuple[Sink, ...] = sinks

    def emit(self, event: Event) -> None:
        for sink in self.sinks:
            sink.emit(event)

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()


def read_jsonl(path: str | Path) -> Iterable[dict]:
    """The JSON objects of a JSONL file, line by line.

    Blank lines, unparseable lines and non-object values are skipped:
    a writer killed mid-append (a trace, the run ledger, the job
    journal) leaves a torn last line, and the file must stay readable.
    """
    with open(path, "r", encoding="utf-8") as stream:
        for line in stream:
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if isinstance(record, dict):
                yield record
