"""Observability: structured tracing, phase timers, algorithm counters.

``repro.obs`` is the measurement substrate of the synthesis pipeline.
It is dependency-free (stdlib only) and imports nothing from the rest
of :mod:`repro`, so every stage — scheduler, placer, router, metrics —
can depend on it without cycles.

Three concepts:

* **Spans** — hierarchical phase timers (``synthesize > place``).
  Every pipeline entry point accepts an optional
  :class:`Instrumentation` and wraps its phases in spans; the per-phase
  wall-clock totals surface as ``SynthesisResult.phase_times``.
* **Counters / gauges** — algorithm statistics (A* nodes expanded, SA
  moves accepted per temperature, scheduler ready-queue depth, wash
  events, router conflict retries), aggregated in memory and optionally
  streamed as events.
* **Event sinks** — :class:`NullSink` (the zero-overhead default: no
  event objects are ever constructed), :class:`JsonlSink` (one JSON
  object per line, streamed to a file — the ``--trace`` flag),
  :class:`RecordingSink` (in-memory capture for tests), and
  :class:`TeeSink` (fan-out to several sinks).

On top of the core sit the production-telemetry modules:

* **Histograms** (:mod:`repro.obs.histogram`) — log-bucket latency
  distributions with p50/p90/p99, recorded via
  :meth:`Instrumentation.observe` and merged across pool workers;
* **Resource sampling** (:mod:`repro.obs.resources`) — a background
  thread gauging RSS / CPU / GC into the event stream (``--profile``);
* **Run ledger** (:mod:`repro.obs.ledger`) — one JSONL record per
  pipeline run, content-addressed by problem digest, queried and
  regression-checked by ``python -m repro stats``;
* **Live progress** (:mod:`repro.obs.live`) — throttled worker
  heartbeats over one lock-free pipe, rendered as a live per-worker
  line (``--live``) or streamed to a service job's SSE feed;
* **Trace export** (:mod:`repro.obs.export`) — ``--trace`` JSONL →
  Chrome trace-event JSON (``python -m repro trace2chrome``).

See ``docs/OBSERVABILITY.md`` for the event schema and usage.
"""

from repro.obs.events import Event
from repro.obs.histogram import Histogram, merge_all
from repro.obs.instrument import Instrumentation, InstrumentationSnapshot, Span
from repro.obs.report import (
    render_counter_table,
    render_histogram_table,
    render_phase_table,
    render_report,
)
from repro.obs.sinks import JsonlSink, NullSink, RecordingSink, Sink, TeeSink

__all__ = [
    "Event",
    "Histogram",
    "Instrumentation",
    "InstrumentationSnapshot",
    "JsonlSink",
    "NullSink",
    "RecordingSink",
    "Sink",
    "Span",
    "TeeSink",
    "merge_all",
    "render_counter_table",
    "render_histogram_table",
    "render_phase_table",
    "render_report",
]
