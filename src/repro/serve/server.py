"""The synthesis server: asyncio orchestration of queue, pool, cache.

``python -m repro serve`` binds an HTTP/JSON API over the rest of the
subsystem:

=======================  =============================================
``POST /jobs``           submit one assay; cache hits answer 200
                         ``{"cached": true, "result": …}`` immediately,
                         misses answer 202 with a job id (add
                         ``?wait=SECONDS`` to long-poll for the result);
                         full queue answers 429 + ``Retry-After``
``POST /jobs/batch``     submit many (``{"jobs": […]}``); per-item
                         verdicts, accepted jobs are never lost (one
                         fsync per request, before the reply)
``GET /jobs/{id}``       job status, result when done (``?wait=`` to
                         long-poll)
``GET /jobs/{id}/events``  Server-Sent-Events progress stream (queued /
                         started / SA + routing heartbeats / done)
``GET /stats``           queue depth, cache hit/miss, counters,
                         latency histograms
``GET /healthz``         liveness
``POST /admin/shutdown`` graceful drain (also SIGINT/SIGTERM)
=======================  =============================================

Design points:

* **Accepted means durable** — submissions are journaled before the
  202 goes out; a crash replays them (:mod:`repro.serve.jobs`).  A
  batch request group-commits: its ``job`` lines share one fsync,
  issued before any byte of the response.
* **Backpressure is explicit** — pending jobs are bounded
  (``--queue-limit``), concurrency is bounded (``--inflight`` jobs,
  each one wave on a ``--jobs``-wide process pool), and a full queue
  is a 429 with a measured ``Retry-After``, not an unbounded buffer.
* **Cache before queue** — the content address is computed at accept
  time; a hit never touches the queue or the pool and returns in
  microseconds with the original run's result byte for byte.
* **Progress is the obs stream** — workers' ``sa.step`` /
  ``route.task`` events ride the heartbeat relay over one lock-free
  pipe (:class:`~repro.obs.live.BeatPipe`, the channel the CLI's
  ``--live`` uses too) that workers inherit; the server pumps them
  into per-job SSE streams.  Worker counter/histogram
  aggregates are absorbed into the server's instrumentation, and every
  executed job appends a ``source: "serve"`` run-ledger record
  (inspect with ``python -m repro stats --serve``).
* **Graceful shutdown drains** — new submissions get 503, in-flight
  jobs finish (journaled ``done``), queued jobs stay journaled for the
  next boot.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import json
import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, AsyncIterator

from repro.errors import ReproError
from repro.obs.instrument import Instrumentation
from repro.obs.live import BeatPipe, Heartbeat
from repro.serve.cache import ResultCache
from repro.serve.executor import JobExecutor, JobOutcome
from repro.serve.http import (
    HttpError,
    Request,
    read_request,
    sse_event,
    write_json,
    write_response,
)
from repro.serve.jobs import DEFAULT_QUEUE_LIMIT, Job, JobQueue, QueueFullError
from repro.serve.protocol import Submission, parse_submission

__all__ = [
    "DEFAULT_PORT",
    "DEFAULT_STATE_DIR",
    "ServeConfig",
    "SynthesisServer",
    "run_serve",
]

DEFAULT_PORT = 8077
DEFAULT_STATE_DIR = Path(".repro") / "serve"

#: Cap on a single long-poll / SSE wait.
MAX_WAIT_SECONDS = 3600.0

#: Cap on retained events per job (heartbeats are throttled, so this
#: is minutes of progress; lifecycle events are never dropped).
MAX_JOB_EVENTS = 500


@dataclass
class ServeConfig:
    """Everything ``python -m repro serve`` lets you turn."""

    host: str = "127.0.0.1"
    port: int = DEFAULT_PORT
    #: Worker processes in the synthesis pool (0 = one per CPU;
    #: 1 = inline execution — no deadlines / death recovery).
    pool_jobs: int = 0
    #: Concurrently executing jobs (each is one wave on the pool).
    inflight: int = 2
    #: Pending-job bound; beyond it submissions get 429.
    queue_limit: int = DEFAULT_QUEUE_LIMIT
    #: Per-job deadline in seconds (``None`` = unbounded).
    deadline: float | None = None
    #: Pool rebuilds tolerated per job (worker death recovery).
    retries: int = 3
    #: Journal + cache directory.
    state_dir: Path = field(default_factory=lambda: DEFAULT_STATE_DIR)
    #: Run-ledger path for executed jobs (``None`` disables).
    ledger: Path | None = None
    #: ``Retry-After`` fallback before any job has finished.
    retry_after: float = 2.0
    #: Journal line count that triggers snapshot + truncate
    #: (``None`` = never compact automatically).
    journal_limit: int | None = None
    #: Result-cache entry bound; beyond it cold entries are evicted
    #: LRU-by-mtime (``None`` = unbounded).
    cache_limit: int | None = None
    #: Start with the dispatcher paused: jobs are accepted, journaled,
    #: and queued, but none executes until ``POST /admin/resume``.
    paused: bool = False


class JobEventLog:
    """Per-job progress events with asyncio followers (loop-confined)."""

    def __init__(self) -> None:
        self.events: list[dict[str, Any]] = []
        self.terminal = False
        self._changed = asyncio.Event()

    def append(self, event: dict[str, Any]) -> bool:
        """Record *event*; ``False`` when the log is full and it was
        dropped (``done``/``failed`` are always kept)."""
        if event.get("event") in ("done", "failed"):
            self.terminal = True
        elif len(self.events) >= MAX_JOB_EVENTS:
            return False
        self.events.append(event)
        self._changed.set()
        return True

    async def wait_terminal(self) -> None:
        while not self.terminal:
            self._changed.clear()
            await self._changed.wait()

    async def follow(
        self, start: int = 0
    ) -> AsyncIterator[tuple[int, dict[str, Any]]]:
        """Yield ``(index, event)`` pairs from position *start* onward.

        The index is the SSE resume token: a reconnecting client passes
        ``?start=<last index + 1>`` and continues without loss."""
        index = max(0, start)
        while True:
            while index < len(self.events):
                yield index, self.events[index]
                index += 1
            if self.terminal:
                return
            self._changed.clear()
            await self._changed.wait()


class SynthesisServer:
    """One service instance: HTTP front, queue, pool, cache, telemetry."""

    def __init__(
        self,
        config: ServeConfig | None = None,
        instrumentation: Instrumentation | None = None,
        executor: JobExecutor | None = None,
    ) -> None:
        self.config = config or ServeConfig()
        self.instr = instrumentation or Instrumentation()
        self.queue: JobQueue | None = None
        self.cache: ResultCache | None = None
        self.executor = executor
        #: Bound TCP port (useful with ``port=0``); set by :meth:`start`.
        self.bound_port: int | None = None
        #: Set once the server accepts connections (cross-thread).
        self.ready = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.base_events.Server | None = None
        self._threads: ThreadPoolExecutor | None = None
        self._events: dict[str, JobEventLog] = {}
        self._inflight = 0
        self._draining = False
        self._stopping = False
        self._paused = self.config.paused
        self._wake: asyncio.Event | None = None
        self._stop_event: asyncio.Event | None = None
        self._dispatcher: asyncio.Task | None = None
        self._beats: BeatPipe | None = None
        self._pump: threading.Thread | None = None
        self._started_at = time.time()
        self._epoch = time.perf_counter()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        cfg = self.config
        self._loop = asyncio.get_running_loop()
        self._wake = asyncio.Event()
        self._stop_event = asyncio.Event()
        cfg.state_dir.mkdir(parents=True, exist_ok=True)
        self.queue = JobQueue(
            cfg.state_dir / "journal.jsonl",
            limit=cfg.queue_limit,
            journal_limit=cfg.journal_limit,
            on_compaction=self._on_compaction,
        )
        self.cache = ResultCache(
            cfg.state_dir / "cache",
            limit=cfg.cache_limit,
            on_evict=lambda n: self.instr.count("serve.cache_evictions", n),
        )
        if self.executor is None:
            # The pipe exists before the pool, so every worker the pool
            # forks (or re-forks after a deadline kill) inherits it.
            self.executor = JobExecutor(
                pool_jobs=cfg.pool_jobs,
                retries=cfg.retries,
                instrumentation=self.instr,
                beats=BeatPipe(),
            )
        self._threads = ThreadPoolExecutor(
            max_workers=max(1, cfg.inflight),
            thread_name_prefix="repro-serve-job",
        )
        self._beats = self.executor.beats
        if self._beats is not None:
            self._pump = threading.Thread(
                target=self._beats.pump, args=(self._post_beat,),
                name="repro-serve-beats", daemon=True,
            )
            self._pump.start()
        # Journal-replayed jobs re-enter the event machinery as queued.
        for job in self.queue.jobs():
            if job.status == "queued":
                self._event_log(job.job_id).append(
                    {"event": "queued", "recovered": True, "ts": time.time()}
                )
        if self.queue.recovered:
            self.instr.count("serve.jobs_recovered", self.queue.recovered)
        self._server = await asyncio.start_server(
            self._handle_connection, host=cfg.host, port=cfg.port
        )
        self.bound_port = self._server.sockets[0].getsockname()[1]
        self._dispatcher = asyncio.create_task(self._dispatch())
        self._gauges()
        self._wake.set()
        self._started_at = time.time()
        self._epoch = time.perf_counter()
        self.ready.set()

    async def run(self, install_signal_handlers: bool = True) -> None:
        """Start, serve until a shutdown request, then drain and stop."""
        await self.start()
        if install_signal_handlers:
            import signal

            for signum in (signal.SIGINT, signal.SIGTERM):
                with contextlib.suppress(NotImplementedError, ValueError):
                    self._loop.add_signal_handler(
                        signum, self.request_shutdown
                    )
        assert self._stop_event is not None
        await self._stop_event.wait()
        await self.shutdown()

    def request_shutdown(self) -> None:
        """Thread-safe graceful-shutdown trigger (signals, admin API)."""
        loop, event = self._loop, self._stop_event
        if loop is None or event is None:
            return
        loop.call_soon_threadsafe(event.set)

    async def shutdown(self, drain_timeout: float | None = 60.0) -> None:
        """Drain in-flight jobs and release every resource.

        New submissions are refused (503) the moment draining starts;
        queued-but-unstarted jobs stay in the journal for the next
        boot.
        """
        if self._draining:
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        deadline = (
            None
            if drain_timeout is None
            else time.monotonic() + drain_timeout
        )
        while self._inflight > 0:
            if deadline is not None and time.monotonic() > deadline:
                break
            assert self._wake is not None
            self._wake.clear()
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(self._wake.wait(), timeout=0.5)
        self._stopping = True
        if self._wake is not None:
            self._wake.set()
        if self._dispatcher is not None:
            with contextlib.suppress(asyncio.CancelledError):
                await self._dispatcher
        pump, self._pump = self._pump, None
        if pump is not None:
            self._beats.wake()
            pump.join(timeout=5.0)
        if self._threads is not None:
            self._threads.shutdown(wait=True)
        if self.executor is not None:
            self.executor.close()
        if pump is not None and not pump.is_alive():
            # A pump still blocked in a read keeps its descriptor: a
            # closed one could be reused and read by it.
            self._beats.close()
        self.ready.clear()

    # ------------------------------------------------------------------
    # Dispatch + execution
    # ------------------------------------------------------------------
    def _event_log(self, job_id: str) -> JobEventLog:
        log = self._events.get(job_id)
        if log is None:
            log = self._events[job_id] = JobEventLog()
        return log

    def _on_compaction(self, evicted: list[str]) -> None:
        """Journal-compaction hook (any thread; also boot-time replay)."""
        self.instr.count("serve.journal_compactions")
        if not evicted:
            return
        loop = self._loop
        if loop is None:
            # Boot-time compaction: the event machinery is empty.
            return
        try:
            loop.call_soon_threadsafe(self._prune_events, evicted)
        except RuntimeError:  # pragma: no cover - loop mid-shutdown
            pass

    def _prune_events(self, evicted: list[str]) -> None:
        for job_id in evicted:
            self._events.pop(job_id, None)

    def _gauges(self) -> None:
        assert self.queue is not None
        self.instr.gauge("serve.queue_depth", float(self.queue.depth))
        self.instr.gauge("serve.inflight", float(self._inflight))

    def _kick(self) -> None:
        if self._wake is not None:
            self._wake.set()

    async def _dispatch(self) -> None:
        assert self._wake is not None and self.queue is not None
        while not self._stopping:
            self._wake.clear()
            while (
                not self._draining
                and not self._paused
                and self._inflight < self.config.inflight
            ):
                job = self.queue.claim()
                if job is None:
                    break
                self._inflight += 1
                self._gauges()
                asyncio.create_task(self._run_job(job))
            await self._wake.wait()

    def set_paused(self, paused: bool) -> None:
        """Pause/resume execution: accepted jobs keep queueing and
        journaling, but no new job starts while paused (in-flight jobs
        finish).  The operational lever behind ``POST /admin/pause``."""
        self._paused = paused
        if not paused:
            self._kick()

    async def _run_job(self, job: Job) -> None:
        assert self._loop is not None and self._threads is not None
        log = self._event_log(job.job_id)
        log.append(
            {"event": "started", "attempt": job.attempts, "ts": time.time()}
        )
        self.instr.count("serve.jobs_started")
        try:
            outcome, elapsed = await self._loop.run_in_executor(
                self._threads, self._execute, job
            )
        except ReproError as error:
            self.queue.fail(job.job_id, str(error))
            self.instr.count("serve.jobs_failed")
            log.append(
                {"event": "failed", "error": str(error), "ts": time.time()}
            )
        except Exception as error:  # pragma: no cover - defensive
            self.queue.fail(job.job_id, f"internal error: {error!r}")
            self.instr.count("serve.jobs_failed")
            log.append(
                {"event": "failed", "error": repr(error), "ts": time.time()}
            )
        else:
            self.cache.remember(job.cache_key, outcome.result_text)
            self.queue.finish(job.job_id)
            self.instr.absorb(outcome.snapshot, worker=0)
            self.instr.count("serve.jobs_done")
            self.instr.observe("serve.job_seconds", elapsed)
            log.append(
                {
                    "event": "done",
                    "cached": False,
                    "seconds": round(elapsed, 6),
                    "ts": time.time(),
                }
            )
        finally:
            self._inflight -= 1
            self._gauges()
            self._kick()

    def _execute(self, job: Job) -> tuple[JobOutcome, float]:
        """Run *job* on the pool, then write its cache file and ledger
        record (job thread).  Returns the outcome and the pool seconds.

        Both writes wait on an fsync.  On the event loop they stalled
        the cache hits in flight once per job; here they take no lock
        the loop holds, so hits go on meanwhile.  The loop then indexes
        the cached result and journals ``done``, in that order.
        """
        started = time.perf_counter()
        outcome = self.executor.execute(
            job.document, deadline=self.config.deadline, label=job.job_id
        )
        elapsed = time.perf_counter() - started
        self.cache.write(job.cache_key, outcome.result_text)
        self._append_ledger(job, outcome.record)
        return outcome, elapsed

    def _append_ledger(self, job: Job, record: dict[str, Any]) -> None:
        if self.config.ledger is None:
            return
        from repro.obs.ledger import append_record

        tagged = dict(record)
        tagged["source"] = "serve"
        tagged["job_id"] = job.job_id
        try:
            append_record(tagged, self.config.ledger)
        except OSError as error:  # pragma: no cover - disk trouble
            self.instr.count("serve.ledger_errors")
            self.instr.event("serve.ledger_error", error=str(error))

    # -- heartbeats ------------------------------------------------------
    def _post_beat(self, beat: Heartbeat) -> None:
        # On the pump thread: hand the beat to the event loop.
        with contextlib.suppress(RuntimeError):  # loop closed mid-shutdown
            self._loop.call_soon_threadsafe(self._on_beat, beat)

    def _on_beat(self, beat: Heartbeat) -> None:
        log = self._events.get(beat.label)
        if log is None:
            return
        self.instr.count("serve.heartbeats")
        event = {
            "event": "progress",
            "kind": beat.kind,
            "t": round(beat.t, 6),
        }
        for key, value in beat.fields.items():
            if isinstance(value, (int, float, str, bool)):
                event[key] = value
        if not log.append(event):
            self.instr.count("serve.heartbeats_dropped")

    # ------------------------------------------------------------------
    # HTTP front
    # ------------------------------------------------------------------
    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Serve requests on one connection until it closes.

        Keep-alive: JSON exchanges loop; SSE streams, protocol errors,
        and ``Connection: close`` requests end the connection.
        """
        try:
            while True:
                try:
                    request = await read_request(reader)
                    if request is None:
                        return
                    keep = await self._route(request, writer)
                    if not keep:
                        return
                except asyncio.CancelledError:
                    # Server closing while this keep-alive connection
                    # idles between requests: end quietly.
                    return
                except HttpError as error:
                    await write_json(
                        writer, error.status, {"error": str(error)}
                    )
                    return
                except ConnectionError:
                    return
                except Exception as error:  # pragma: no cover - defensive
                    with contextlib.suppress(Exception):
                        await write_json(
                            writer,
                            500,
                            {"error": f"internal error: {error!r}"},
                        )
                    return
        finally:
            # CancelledError too: the close handshake itself gets
            # cancelled when the server shuts down mid-connection
            # (it derives from BaseException, which plain
            # ``suppress(Exception)`` would let escape to the loop's
            # exception handler as noise).
            with contextlib.suppress(Exception, asyncio.CancelledError):
                writer.close()
                await writer.wait_closed()

    async def _route(
        self, request: Request, writer: asyncio.StreamWriter
    ) -> bool:
        """Dispatch one request; returns True to keep the connection."""
        keep = not request.wants_close
        method, path = request.method, request.path.rstrip("/")
        if path == "/healthz" and method == "GET":
            await write_json(
                writer,
                200,
                {"status": "ok", "draining": self._draining},
                close=not keep,
            )
            return keep
        if path == "/stats" and method == "GET":
            await write_json(writer, 200, self.stats(), close=not keep)
            return keep
        if path == "/jobs" and method == "POST":
            await self._handle_submit(request, writer, keep)
            return keep
        if path == "/jobs/batch" and method == "POST":
            await self._handle_batch(request, writer, keep)
            return keep
        if path == "/admin/shutdown" and method == "POST":
            self.request_shutdown()
            await write_json(writer, 200, {"status": "draining"}, close=True)
            return False
        if path == "/admin/pause" and method == "POST":
            self.set_paused(True)
            await write_json(
                writer, 200, {"status": "paused"}, close=not keep
            )
            return keep
        if path == "/admin/resume" and method == "POST":
            self.set_paused(False)
            await write_json(
                writer, 200, {"status": "running"}, close=not keep
            )
            return keep
        if path.startswith("/jobs/") and method == "GET":
            rest = path[len("/jobs/"):]
            if rest.endswith("/events"):
                await self._handle_events(
                    request, rest[: -len("/events")], writer
                )
                return False  # SSE bodies are connection-delimited
            if "/" not in rest:
                await self._handle_status(request, rest, writer, keep)
                return keep
        raise HttpError(
            404 if method in ("GET", "POST") else 405,
            f"no route for {method} {request.path}",
        )

    def _wait_seconds(self, request: Request) -> float | None:
        raw = request.query.get("wait")
        if raw is None:
            return None
        try:
            value = float(raw)
        except ValueError:
            raise HttpError(400, f"malformed wait={raw!r}")
        return max(0.0, min(value, MAX_WAIT_SECONDS))

    def _retry_after(self, key: str | None = None) -> int:
        """Measured backpressure hint: mean job time, or the configured
        fallback while the histogram is empty.

        With *key* (job id or digest) the hint carries deterministic
        jitter — a 1.0–1.5× multiplier derived from the key's hash — so
        a herd of rejected clients retrying on schedule does not
        stampede back in the same second.  Deterministic, so a client
        retrying the same job always hears the same number and tests
        can assert it.
        """
        histogram = self.instr.histogram("serve.job_seconds")
        if histogram is not None and histogram.count:
            mean = histogram.total / histogram.count
        else:
            mean = self.config.retry_after
        if key:
            token = int.from_bytes(
                hashlib.sha256(key.encode("utf-8")).digest()[:4], "big"
            )
            mean *= 1.0 + 0.5 * (token / 2**32)
        return max(1, int(math.ceil(mean)))

    def _result_payload(
        self, job: Job
    ) -> tuple[dict[str, Any], dict[str, str] | None]:
        """Job status payload plus the raw result text to splice in."""
        payload = job.as_status()
        if job.status == "done":
            text = self.cache.peek(job.cache_key)
            if text is not None:
                return payload, {"result": text}
        return payload, None

    async def _handle_submit(
        self, request: Request, writer: asyncio.StreamWriter, keep: bool
    ) -> None:
        if self._draining:
            await write_json(
                writer, 503, {"error": "server is draining"}, close=not keep
            )
            return
        self.instr.count("serve.requests")
        started = time.perf_counter()
        try:
            submission = parse_submission(request.json())
        except ReproError as error:
            self.instr.count("serve.requests_invalid")
            await write_json(
                writer, 400, {"error": str(error)}, close=not keep
            )
            return
        try:
            status, payload, raw = self._accept(submission)
        except QueueFullError as error:
            retry = self._retry_after(submission.job_id or submission.digest)
            self.instr.count("serve.jobs_rejected")
            await write_json(
                writer,
                429,
                {"error": str(error), "retry_after": retry},
                extra_headers={"Retry-After": str(retry)},
                close=not keep,
            )
            return
        wait = self._wait_seconds(request)
        if wait and status == 202:
            job_id = payload["job_id"]
            log = self._event_log(job_id)
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(log.wait_terminal(), timeout=wait)
            job = self.queue.get(job_id)
            payload, raw = self._result_payload(job)
            payload["cached"] = False
            status = 200 if job.status in ("done", "failed") else 202
        self.instr.observe(
            "serve.request_seconds", time.perf_counter() - started
        )
        await write_json(writer, status, payload, raw=raw, close=not keep)

    def _accept(
        self, submission: Submission, sync: bool = True
    ) -> tuple[int, dict[str, Any], dict[str, str] | None]:
        """Cache-or-queue one parsed submission (429 raises through).

        Returns ``(status, payload, raw)``; *raw* carries pre-serialised
        result text for :func:`~repro.serve.http.write_json` to splice
        in verbatim (the cache-hit fast path).  ``sync=False`` defers
        the journal fsync to the caller's :meth:`JobQueue.sync`.
        """
        text = self.cache.get(submission.cache_key)
        if text is not None:
            self.instr.count("serve.cache_hits")
            payload = {
                "job_id": submission.job_id,
                "status": "done",
                "cached": True,
                "digest": submission.digest,
            }
            return 200, payload, {"result": text}
        self.instr.count("serve.cache_misses")
        job, created = self.queue.submit(
            submission.document,
            digest=submission.digest,
            cache_key=submission.cache_key,
            job_id=submission.job_id,
            sync=sync,
        )
        if created:
            self.instr.count("serve.jobs_accepted")
            self._event_log(job.job_id).append(
                {"event": "queued", "ts": time.time()}
            )
            self._gauges()
            self._kick()
            return 202, {
                "job_id": job.job_id,
                "status": "queued",
                "cached": False,
                "digest": submission.digest,
            }, None
        # Idempotent resubmission of a known job id.
        payload, raw = self._result_payload(job)
        payload["cached"] = False
        return (200 if job.status == "done" else 202), payload, raw

    async def _handle_batch(
        self, request: Request, writer: asyncio.StreamWriter, keep: bool
    ) -> None:
        if self._draining:
            await write_json(
                writer, 503, {"error": "server is draining"}, close=not keep
            )
            return
        self.instr.count("serve.requests")
        data = request.json()
        items = data.get("jobs") if isinstance(data, dict) else None
        if not isinstance(items, list) or not items:
            raise HttpError(400, "body must be {'jobs': [submission, …]}")
        entries: list[dict[str, Any]] = []
        accepted = rejected = hits = 0
        try:
            for item in items:
                try:
                    submission = parse_submission(item)
                    status, payload, raw = self._accept(
                        submission, sync=False
                    )
                    if raw is not None:
                        # Batch responses embed results as parsed
                        # objects; write_json's canonical serialisation
                        # keeps them byte-identical to the stored text.
                        payload["result"] = json.loads(raw["result"])
                except QueueFullError as error:
                    rejected += 1
                    self.instr.count("serve.jobs_rejected")
                    entries.append(
                        {
                            "status": "rejected",
                            "error": str(error),
                            "retry_after": self._retry_after(
                                submission.job_id or submission.digest
                            ),
                        }
                    )
                    continue
                except ReproError as error:
                    rejected += 1
                    entries.append(
                        {"status": "invalid", "error": str(error)}
                    )
                    continue
                if payload.get("cached"):
                    hits += 1
                else:
                    accepted += 1
                entries.append(payload)
        finally:
            # Group commit: one fsync makes every job line above
            # durable before any response byte (200 or an error from
            # the connection handler) acknowledges it.
            self.queue.sync()
        await write_json(
            writer,
            200,
            {
                "jobs": entries,
                "accepted": accepted,
                "cached": hits,
                "rejected": rejected,
            },
            close=not keep,
        )

    async def _handle_status(
        self,
        request: Request,
        job_id: str,
        writer: asyncio.StreamWriter,
        keep: bool,
    ) -> None:
        job = self.queue.get(job_id)
        if job is None:
            raise HttpError(404, f"unknown job {job_id!r}")
        wait = self._wait_seconds(request)
        if wait and job.status in ("queued", "running"):
            log = self._event_log(job_id)
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(log.wait_terminal(), timeout=wait)
            job = self.queue.get(job_id)
        payload, raw = self._result_payload(job)
        await write_json(writer, 200, payload, raw=raw, close=not keep)

    async def _handle_events(
        self, request: Request, job_id: str, writer: asyncio.StreamWriter
    ) -> None:
        job = self.queue.get(job_id)
        if job is None:
            raise HttpError(404, f"unknown job {job_id!r}")
        raw_start = request.query.get("start")
        start = 0
        if raw_start is not None:
            try:
                start = int(raw_start)
            except ValueError:
                raise HttpError(400, f"malformed start={raw_start!r}")
            if start < 0:
                raise HttpError(400, "start must be >= 0")
        await write_response(
            writer,
            200,
            b"",
            content_type="text/event-stream",
            extra_headers={"Cache-Control": "no-cache"},
            head_only=True,
        )
        log = self._event_log(job_id)
        async for index, event in log.follow(start):
            # Each frame carries its stream position (``id:`` line and
            # an ``i`` field): a dropped client reconnects with
            # ``?start=i+1`` and resumes without replay or loss.
            data = dict(event)
            data["i"] = index
            writer.write(sse_event(data, event.get("event"), event_id=index))
            await writer.drain()
        end_index = len(log.events)
        writer.write(
            sse_event({"event": "end", "i": end_index}, "end",
                      event_id=end_index)
        )
        await writer.drain()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        return {
            "uptime_s": round(time.time() - self._started_at, 3),
            "draining": self._draining,
            "paused": self._paused,
            "queue": {
                "depth": self.queue.depth,
                "limit": self.queue.limit,
                "inflight": self._inflight,
                "inflight_limit": self.config.inflight,
                "recovered": self.queue.recovered,
                "counts": self.queue.counts(),
            },
            "journal": {
                "lines": self.queue.journal_lines,
                "limit": self.queue.journal_limit,
                "compactions": self.queue.compactions,
            },
            "cache": self.cache.stats(),
            "pool": {
                "jobs": self.executor.pool_jobs,
                "generations": self.executor.session.generations,
                "deadline": self.config.deadline,
                "retries": self.executor.retries,
            },
            "counters": self.instr.counters,
            "gauges": self.instr.gauges,
            "histograms": self.instr.histogram_summaries(),
        }


# ----------------------------------------------------------------------
# The ``python -m repro serve`` command
# ----------------------------------------------------------------------
def run_serve(argv: list[str] | None = None) -> int:
    """Implementation of ``python -m repro serve`` (returns exit code)."""
    import argparse
    import sys

    parser = argparse.ArgumentParser(
        prog="repro serve",
        description=(
            "Serve synthesis over HTTP/JSON with a persistent job queue "
            "and a content-addressed result cache (docs/SERVICE.md)."
        ),
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT,
                        help=f"TCP port (default: {DEFAULT_PORT}; 0 picks "
                             "a free port)")
    parser.add_argument("--jobs", type=int, default=0,
                        help="synthesis pool worker processes "
                             "(default: 0 = one per CPU; 1 = inline, "
                             "which disables deadlines and worker-death "
                             "recovery)")
    parser.add_argument("--inflight", type=int, default=2,
                        help="jobs executing concurrently (default: 2)")
    parser.add_argument("--queue-limit", type=int,
                        default=DEFAULT_QUEUE_LIMIT,
                        help="pending-job bound; beyond it submissions "
                             f"get 429 (default: {DEFAULT_QUEUE_LIMIT})")
    parser.add_argument("--deadline", type=float, default=None,
                        metavar="SECONDS",
                        help="per-job deadline; an overdue job fails and "
                             "its worker pool is recycled (default: none)")
    parser.add_argument("--retries", type=int, default=3,
                        help="pool rebuilds tolerated per job after "
                             "worker death (default: 3)")
    parser.add_argument("--state-dir", type=Path,
                        default=DEFAULT_STATE_DIR,
                        help="journal + cache directory "
                             f"(default: {DEFAULT_STATE_DIR})")
    parser.add_argument("--ledger", type=Path, default=None, metavar="PATH",
                        help="append a 'source: serve' run-ledger record "
                             "per executed job (default: "
                             ".repro/ledger.jsonl; see --no-ledger)")
    parser.add_argument("--no-ledger", action="store_true",
                        help="skip run-ledger records entirely")
    parser.add_argument("--journal-limit", type=int, default=None,
                        metavar="LINES",
                        help="journal line count that triggers snapshot + "
                             "truncate compaction (default: never)")
    parser.add_argument("--cache-limit", type=int, default=None,
                        metavar="ENTRIES",
                        help="result-cache entry bound; oldest entries are "
                             "evicted LRU-by-mtime (default: unbounded)")
    args = parser.parse_args(argv)

    from repro.obs.ledger import DEFAULT_LEDGER_PATH

    ledger = None if args.no_ledger else (args.ledger or DEFAULT_LEDGER_PATH)
    config = ServeConfig(
        host=args.host,
        port=args.port,
        pool_jobs=args.jobs,
        inflight=args.inflight,
        queue_limit=args.queue_limit,
        deadline=args.deadline,
        retries=args.retries,
        state_dir=args.state_dir,
        ledger=ledger,
        journal_limit=args.journal_limit,
        cache_limit=args.cache_limit,
    )
    server = SynthesisServer(config)

    async def _main() -> None:
        started = asyncio.create_task(server.run())
        while not server.ready.is_set() and not started.done():
            await asyncio.sleep(0.01)
        if server.ready.is_set():
            print(
                f"repro-serve: listening on "
                f"http://{config.host}:{server.bound_port} "
                f"(pool jobs={server.executor.pool_jobs}, "
                f"inflight={config.inflight}, "
                f"queue limit={config.queue_limit})",
                file=sys.stderr,
            )
        await started

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:  # pragma: no cover - double ^C
        pass
    except OSError as error:
        print(f"error: cannot serve: {error}", file=sys.stderr)
        return 3
    print("repro-serve: drained and stopped", file=sys.stderr)
    return 0
