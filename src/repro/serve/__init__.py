"""Synthesis-as-a-service: async HTTP job server with a result cache.

The subsystem converts the single-shot synthesis CLI into a long-lived
service (ROADMAP item 1).  Layers, bottom up:

* :mod:`repro.serve.protocol` — submission documents: validation,
  canonicalisation, content addressing (via :mod:`repro.core.digest`),
  and the serialised result document.
* :mod:`repro.serve.jobs` — the bounded persistent job queue: an
  append-only JSONL journal under ``.repro/serve/`` replayed on
  restart, so accepted jobs survive a crash.
* :mod:`repro.serve.cache` — the content-addressed result cache:
  identical submissions are served from cache in microseconds instead
  of re-synthesized.
* :mod:`repro.serve.executor` — job execution over the
  :class:`~repro.parallel.pool.PoolSession` process pool with per-job
  deadlines and retry-after-worker-death.
* :mod:`repro.serve.http` — a minimal asyncio HTTP/1.1 layer (stdlib
  only; no new dependencies).
* :mod:`repro.serve.server` — the orchestrator tying the above into
  ``python -m repro serve``: endpoints, backpressure (429 +
  ``Retry-After``), SSE progress streams, graceful shutdown.
* :mod:`repro.serve.client` — a blocking client and the
  ``python -m repro submit`` command.
* :mod:`repro.serve.loadgen` — the load generator behind
  ``bench --serve`` (latency / throughput / cache-speedup / durable
  batch-ingest artifact).

One process is the whole deployment: with batch submissions
group-committed (one journal fsync per ``POST /jobs/batch``), a single
server out-ingests the four-process front tier it replaced
(``docs/PERFORMANCE.md``, "Batch ingest").

See ``docs/SERVICE.md`` for the API reference and semantics.
"""

from repro.serve.cache import ResultCache
from repro.serve.client import ServeClient
from repro.serve.jobs import JobQueue, QueueFullError
from repro.serve.protocol import (
    Submission,
    SubmissionError,
    parse_submission,
    result_document,
)
from repro.serve.server import ServeConfig, SynthesisServer

__all__ = [
    "JobQueue",
    "QueueFullError",
    "ResultCache",
    "ServeClient",
    "ServeConfig",
    "Submission",
    "SubmissionError",
    "SynthesisServer",
    "parse_submission",
    "result_document",
]
