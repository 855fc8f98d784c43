"""Trace export: ``--trace`` JSONL → Chrome trace-event format.

``python -m repro trace2chrome trace.jsonl [-o trace.chrome.json]``
converts a trace written by :class:`~repro.obs.JsonlSink` into the
`Chrome trace-event format`_ understood by Perfetto / ``chrome://tracing``:

* ``span_start`` / ``span_end``  →  duration events (``ph: B`` / ``E``);
* ``counter`` and ``gauge``      →  counter tracks (``ph: C``);
* ``point`` and ``histogram``    →  instant events (``ph: i``);
* one metadata event per worker  →  named thread tracks (``ph: M``).

Worker mapping: the repro event schema stamps events produced inside a
pool worker with a ``worker`` index, and span ids are only unique *per
worker* (every instrumentation numbers from 1).  The exporter therefore
keys everything by ``(worker, span_id)`` and maps the main process to
``tid 0`` and worker *k* to ``tid k+1`` — a ``--restarts 4 --jobs 2``
trace opens in Perfetto with one track per worker, each carrying its
own SA restart span tree.

.. _Chrome trace-event format:
   https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from repro.obs.sinks import read_jsonl

__all__ = ["trace_to_chrome", "convert_trace", "run_trace2chrome"]

#: Synthetic process id — a trace comes from one logical run.
_PID = 1


def _tid(worker: int | None) -> int:
    """Chrome-trace thread id: main process 0, worker *k* → ``k + 1``."""
    return 0 if worker is None else int(worker) + 1


def _track_name(worker: int | None) -> str:
    return "main" if worker is None else f"worker {worker}"


def _counter_args(fields: Mapping[str, Any]) -> dict[str, Any]:
    """Numeric payload of a counter/gauge sample, for a ``C`` event."""
    args = {
        key: value
        for key, value in fields.items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    }
    return args or {"value": 0}


def trace_to_chrome(events: Iterable[Mapping[str, Any]]) -> list[dict[str, Any]]:
    """Convert parsed trace records into Chrome trace-event dictionaries.

    *events* are the dictionaries produced by
    :func:`~repro.obs.read_jsonl` (keys ``kind``/``name``/``t``/``span``/
    ``parent``, optional ``worker`` and ``fields``).  Timestamps convert
    from seconds-since-epoch-of-the-run to microseconds, as the format
    requires.
    """
    chrome: list[dict[str, Any]] = []
    seen_tids: dict[int, str] = {}
    for event in events:
        kind = event.get("kind")
        if kind not in ("span_start", "span_end", "counter", "gauge",
                        "histogram", "point"):
            continue
        worker = event.get("worker")
        tid = _tid(worker)
        if tid not in seen_tids:
            seen_tids[tid] = _track_name(worker)
        ts = float(event.get("t", 0.0)) * 1e6
        name = str(event.get("name", "?"))
        fields = event.get("fields") or {}
        if kind == "span_start":
            chrome.append(
                {"ph": "B", "pid": _PID, "tid": tid, "ts": ts,
                 "name": name, "cat": "span", "args": dict(fields)}
            )
        elif kind == "span_end":
            chrome.append(
                {"ph": "E", "pid": _PID, "tid": tid, "ts": ts,
                 "name": name, "cat": "span", "args": dict(fields)}
            )
        elif kind in ("counter", "gauge"):
            chrome.append(
                {"ph": "C", "pid": _PID, "tid": tid, "ts": ts,
                 "name": name, "cat": kind, "args": _counter_args(fields)}
            )
        else:  # point / histogram samples → instant events
            chrome.append(
                {"ph": "i", "pid": _PID, "tid": tid, "ts": ts, "s": "t",
                 "name": name, "cat": kind, "args": dict(fields)}
            )
    metadata = [
        {"ph": "M", "pid": _PID, "tid": tid, "name": "thread_name",
         "args": {"name": label}}
        for tid, label in sorted(seen_tids.items())
    ]
    # Thread tracks sort by tid: main first, then workers in order.
    metadata.extend(
        {"ph": "M", "pid": _PID, "tid": tid, "name": "thread_sort_index",
         "args": {"sort_index": tid}}
        for tid in sorted(seen_tids)
    )
    return metadata + chrome


def convert_trace(
    trace_path: str | Path, output_path: str | Path | None = None
) -> Path:
    """Convert a JSONL trace file; return the Chrome-trace output path.

    The default output path replaces the input suffix with
    ``.chrome.json`` (``trace.jsonl`` → ``trace.chrome.json``).
    """
    trace_path = Path(trace_path)
    if output_path is None:
        output_path = trace_path.with_suffix(".chrome.json")
    output_path = Path(output_path)
    chrome = trace_to_chrome(read_jsonl(trace_path))
    document = {"traceEvents": chrome, "displayTimeUnit": "ms"}
    output_path.write_text(
        json.dumps(document, sort_keys=True) + "\n", encoding="utf-8"
    )
    return output_path


def run_trace2chrome(argv: Sequence[str] | None = None) -> int:
    """Implementation of ``python -m repro trace2chrome`` (exit code)."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro trace2chrome",
        description="Convert a --trace JSONL file to Chrome trace-event "
        "JSON (openable in Perfetto or chrome://tracing).",
    )
    parser.add_argument("trace", help="input trace (.jsonl) written by --trace")
    parser.add_argument(
        "-o", "--output",
        help="output path (default: input with .chrome.json suffix)",
    )
    args = parser.parse_args(argv)
    trace = Path(args.trace)
    if not trace.exists():
        print(f"trace file not found: {trace}")
        return 2
    output = convert_trace(trace, args.output)
    events = json.loads(output.read_text(encoding="utf-8"))["traceEvents"]
    workers = {e["tid"] for e in events if e.get("ph") != "M"}
    print(
        f"wrote {output} ({len(events)} events, "
        f"{len(workers)} track(s))"
    )
    return 0

