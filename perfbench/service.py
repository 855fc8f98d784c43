"""The ``service`` workload: the default ``python -m repro serve`` under
two concurrent closed loops.

* Set-up: a fresh server process (port 0, state and ledger in a
  throwaway directory) until its first PCR result arrives over HTTP,
  ``SETUP_SAMPLES`` times; the last server stays up for the run.
* Warm-up (untimed): one cold job per Table I row, then one cache hit
  on each, whose response bytes become the expected replies.
* Measured: the *read* connection replays those submissions as cache
  hits for as long as the *write* connection works through fresh
  ``(row, seed)`` jobs one at a time: ``POST /jobs`` -> 202, then
  ``GET /jobs/{id}?wait=``.  At most one cold job is in flight, so
  synthesis never holds both cores, and load comes from this process
  alone: two threads, two keep-alive connections.
* Afterwards (untimed): every cold result must carry the metrics the
  library flow returns for the same submission, and that library
  result must pass the checker and the makespan lower bound.

The pool's workers run on one core (*back*); the event loop, its
helper processes and this load generator on the other (*front*), so a
synthesis never competes with the hits.  The measured loop runs in
segments of ``COLD_PER_SEGMENT`` cold jobs.  Between segments both
loops pause and the host-speed probe (``common.probe``) runs on each
core while the server is idle; the hits of a segment are counted at
reference speed through the front core's probes on either side of it,
its cold jobs through the back core's.  Every cold job and every hit
counts.
"""

from __future__ import annotations

import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from http.client import HTTPConnection, HTTPException
from pathlib import Path

import flow
from common import (
    ROOT,
    SRC,
    WORK_DIR,
    alive,
    at_reference,
    descendants,
    digest,
    end_to_end,
    hit_summary,
    mean,
    metric,
    peak_rss_mb,
    perf,
    print_unscaled,
    probe_on,
    quality,
    report_failure,
    timed_start,
)

#: Fresh server starts per run; the median is reported.
SETUP_SAMPLES = 5
#: Rounds of cold jobs per measured second; a round submits each Table I
#: row once, with a fresh seed.
COLD_ROUNDS_PER_SECOND = 0.5
#: Cold jobs between two probes.
COLD_PER_SEGMENT = 3
#: Untimed cache hits before measuring.
WARM_HITS = 100
#: Long-poll bound for one job (seconds).
WAIT_SECONDS = 120
SETUP_BODY = b'{"benchmark":"PCR"}'


def submission(row: str, seed: int) -> bytes:
    return json.dumps(
        {"benchmark": row, "parameters": {"seed": seed}},
        sort_keys=True, separators=(",", ":"),
    ).encode("utf-8")


def plan(seed: int, seconds: float, smoke: bool):
    """Warm ``[row, seed]`` submissions (one per Table I row) and the
    cold ``[row, seed]`` jobs in submission order: every row equally
    often, in a seeded order.  All seeds are distinct, so no cold job
    is ever a cache hit."""
    from repro.benchmarks.registry import TABLE1_ORDER

    rng = random.Random(seed)
    rounds = 1 if smoke else max(2, round(seconds * COLD_ROUNDS_PER_SECOND))
    seeds = rng.sample(range(1, flow.SEED_SPACE),
                       len(TABLE1_ORDER) * (rounds + 1))
    warm = [[row, seeds.pop()] for row in TABLE1_ORDER]
    cold = [[row, seeds.pop()] for _ in range(rounds)
            for row in TABLE1_ORDER]
    rng.shuffle(cold)
    return warm, cold


class Connection:
    """One keep-alive HTTP/1.1 connection to the server."""

    def __init__(self, port: int) -> None:
        self._http = HTTPConnection("127.0.0.1", port,
                                    timeout=WAIT_SECONDS + 60)

    def request(self, method: str, path: str, body: bytes | None = None):
        headers = {"Content-Type": "application/json"} if body else {}
        self._http.request(method, path, body=body, headers=headers)
        response = self._http.getresponse()
        return response.status, response.read()

    def json(self, method: str, path: str, body: bytes | None = None):
        status, raw = self.request(method, path, body)
        return status, json.loads(raw)

    def close(self) -> None:
        self._http.close()


class Server:
    """One ``python -m repro serve`` process in its default
    configuration, with its state and ledger under *directory*."""

    def __init__(self, directory: Path) -> None:
        self.directory = directory
        self.process: subprocess.Popen | None = None
        self.connection: Connection | None = None
        self.port = 0
        self.helpers: set[int] = set()

    def start(self) -> float:
        """Start the server; returns the seconds until its first PCR
        result arrived over HTTP."""
        self.directory.mkdir(parents=True)
        log_path = self.directory / "server.log"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (str(SRC), env.get("PYTHONPATH")))
        )
        started = perf()
        with open(log_path, "wb") as log:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0",
                 "--state-dir", str(self.directory / "state"),
                 "--ledger", str(self.directory / "ledger.jsonl")],
                cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=log,
            )
        self.port = self._await_port(log_path)
        # Processes the server runs before its first job (the heartbeat
        # manager); the pool's workers appear with the first job.
        self.helpers = set(descendants(self.process.pid))
        self.connection = Connection(self.port)
        status, document = self.connection.json(
            "POST", f"/jobs?wait={WAIT_SECONDS}", SETUP_BODY
        )
        elapsed = perf() - started
        if status != 200 or document.get("status") != "done":
            raise RuntimeError(f"set-up job failed ({status}): {document}")
        return elapsed

    def _await_port(self, log_path: Path) -> int:
        deadline = perf() + 60
        while True:
            found = re.search(rb"listening on http://[^:]+:(\d+)",
                              log_path.read_bytes())
            if found:
                return int(found[1])
            if self.process.poll() is not None or perf() > deadline:
                raise RuntimeError(
                    "server did not start:\n"
                    + log_path.read_text(errors="replace")
                )
            time.sleep(0.002)

    def pin(self, front: int, back: int) -> None:
        """Put the pool's workers on core *back*, and the event loop and
        its helper processes on core *front*, beside the load generator.
        Called before every segment, so a worker the pool rebuilt is
        pinned too."""
        for pid in self.processes():
            core = (front if pid == self.process.pid or pid in self.helpers
                    else back)
            try:
                for task in os.listdir(f"/proc/{pid}/task"):
                    os.sched_setaffinity(int(task), {core})
            except OSError:  # the process or thread ended meanwhile
                pass

    def processes(self) -> list[int]:
        """The server and every process it started (pool, manager)."""
        return [self.process.pid] + descendants(self.process.pid)

    def stop(self) -> list[int]:
        """Drain and stop the server and wait until every process it
        ran has ended; returns their pids."""
        if self.process is None:
            return []
        pids = self.processes()
        if self.connection is not None:
            try:
                self.connection.request("POST", "/admin/shutdown", b"{}")
            except (OSError, HTTPException):
                pass
            self.connection.close()
        try:
            self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait(timeout=30)
        deadline = perf() + 30
        while any(alive(pid) for pid in pids) and perf() < deadline:
            time.sleep(0.02)
        for pid in pids:
            if alive(pid):
                report_failure("server stop", f"process {pid} outlived it")
                os.kill(pid, signal.SIGKILL)
        self.process = None
        return pids


class HitLoop(threading.Thread):
    """The read connection: replays cached submissions while resumed."""

    def __init__(self, port: int, bodies: list[bytes],
                 replies: list[bytes]) -> None:
        super().__init__(name="perfbench-hits")
        self.port, self.bodies, self.replies = port, bodies, replies
        self._go = threading.Event()
        self._idle = threading.Event()
        self._done = False
        self.segment = 0
        #: ``(segment, seconds)`` of every completed hit.
        self.samples: list[tuple[int, float]] = []
        self.attempted = 0
        self.failed = 0

    def resume(self, segment: int) -> None:
        self.segment = segment
        self._idle.clear()
        self._go.set()

    def pause(self) -> None:
        """Return once the request in flight has completed."""
        self._go.clear()
        self._idle.wait()

    def stop(self) -> None:
        self._done = True
        self._go.set()
        self.join()

    def run(self) -> None:
        connection = Connection(self.port)
        try:
            while not self._done:
                if not self._go.is_set():
                    self._idle.set()
                    self._go.wait()
                    continue
                index = self.attempted % len(self.bodies)
                self.attempted += 1
                t0 = perf()
                try:
                    status, raw = connection.request(
                        "POST", "/jobs", self.bodies[index]
                    )
                except (OSError, HTTPException) as error:
                    self.failed += 1
                    report_failure("cache hit", repr(error))
                    continue
                self.samples.append((self.segment, perf() - t0))
                if status != 200 or raw != self.replies[index]:
                    self.failed += 1
                    report_failure("cache hit", f"status {status}")
        finally:
            self._idle.set()
            connection.close()


def warm_up(connection: Connection, warm) -> tuple[list, list[bytes]]:
    """Cache one result per warm submission; record the exact bytes a
    hit on each returns."""
    documents, replies = [], []
    for row, seed in warm:
        body = submission(row, seed)
        status, cold = connection.json(
            "POST", f"/jobs?wait={WAIT_SECONDS}", body
        )
        if status != 200 or cold.get("status") != "done":
            raise RuntimeError(f"warm-up job {row}/{seed} failed: {cold}")
        status, reply = connection.request("POST", "/jobs", body)
        hit = json.loads(reply)
        if status != 200 or not hit.get("cached") or (
            hit.get("result") != cold.get("result")
        ):
            raise RuntimeError(f"cache hit on {row}/{seed} differs")
        documents.append(cold["result"])
        replies.append(reply)
    for k in range(WARM_HITS):
        connection.request("POST", "/jobs", submission(*warm[k % len(warm)]))
    return documents, replies


def phase_seconds(stats: dict) -> float:
    """Worker synthesis seconds absorbed into the server so far."""
    return sum(
        summary["sum"]
        for name, summary in stats["histograms"].items()
        if name.startswith("phase.")
    )


def cold_loop(connection: Connection, cold, segment: int, trace: bool):
    """The write connection: one fresh job at a time.

    Returns ``(records, failed)``.  A traced run also reads ``/stats``
    around each job (outside its latency) to attribute the worker's
    synthesis time.
    """
    records, failed = [], 0
    for row, seed in cold:
        if trace:
            before = phase_seconds(connection.json("GET", "/stats")[1])
        t0 = perf()
        try:
            status, raw = connection.request(
                "POST", "/jobs", submission(row, seed)
            )
            accepted = perf()
            if status != 202:
                raise RuntimeError(f"submit answered {status}")
            job_id = json.loads(raw)["job_id"]
            status, raw = connection.request(
                "GET", f"/jobs/{job_id}?wait={WAIT_SECONDS}"
            )
            received, received_wall = perf(), time.time()
            job = json.loads(raw)
            if status != 200 or job.get("status") != "done":
                raise RuntimeError(f"job answered {status}: {job}")
        except (OSError, HTTPException, RuntimeError, ValueError) as error:
            failed += 1
            report_failure(f"cold job {row}/{seed}", repr(error))
            continue
        record = {
            "segment": segment,
            "row": row,
            "seed": seed,
            "latency": received - t0,
            "accept": accepted - t0,
            "queue_wait": job["started"] - job["created"],
            "execute": job["finished"] - job["started"],
            "reply": received_wall - job["finished"],
            "metrics": job["result"]["metrics"],
        }
        if trace:
            after = phase_seconds(connection.json("GET", "/stats")[1])
            record["worker_synth"] = after - before
        records.append(record)
    return records, failed


def measured_loops(server: Server, hits: HitLoop, cold, trace: bool,
                   front: int, back: int):
    """Both closed loops, segment by segment.  Between segments, while
    the server is idle, the processes are pinned again and the probe
    runs on each of the two cores.

    Returns ``(records, failed, probes)``: ``probes[s]`` and
    ``probes[s + 1]`` bracket segment ``s``, each a ``(front core,
    back core)`` pair of probe seconds.
    """

    def probe_both() -> tuple[float, float]:
        server.pin(front, back)
        return probe_on(front), probe_on(back)

    records, failed = [], 0
    probes = [probe_both()]
    for segment, start in enumerate(range(0, len(cold), COLD_PER_SEGMENT)):
        hits.resume(segment)
        try:
            done, segment_failed = cold_loop(
                server.connection, cold[start:start + COLD_PER_SEGMENT],
                segment, trace,
            )
        finally:
            hits.pause()
        records += done
        failed += segment_failed
        probes.append(probe_both())
    return records, failed, probes


def verify(served) -> int:
    """Re-run every served ``(row, seed, metrics)`` through the library
    flow (untimed) and count the submissions whose metrics differ or
    whose library result fails the checker or the makespan bound."""
    failed = 0
    checks = flow.check_submissions([(row, seed) for row, seed, _ in served])
    for (row, seed, metrics), (expected, errors) in zip(served, checks):
        if expected is not None and expected != quality(metrics):
            errors = errors + ["service metrics differ from the library flow"]
        if errors:
            failed += 1
            report_failure(f"{row}/{seed}", errors[:3])
    return failed


def traced_metrics(warm, records, delta, journal_lines):
    """Per-layer metrics of a traced service run: the library layers of
    the warm submissions rebuilt stage by stage, and the service layers
    of the cold jobs.  Returns ``(metrics, failed)``, counting traced
    submissions whose rebuilt flow differs from ``synthesize()``."""
    _, metrics, failed = flow.trace_items(flow.table1_items(warm))
    n = max(1, len(records))

    def ms(values):
        return metric(mean(values) * 1e3, "ms")

    hit_total = delta("serve.cache_hits")
    lookups = hit_total + delta("serve.cache_misses")
    metrics.update({
        "serve.accept_ms": ms([r["accept"] for r in records]),
        "serve.queue_wait_ms": ms([r["queue_wait"] for r in records]),
        "serve.execute_ms": ms([r["execute"] for r in records]),
        "serve.reply_ms": ms([r["reply"] for r in records]),
        "serve.worker_synth_ms": ms([r["worker_synth"] for r in records]),
        "parallel.dispatch_ms": ms(
            [r["execute"] - r["worker_synth"] for r in records]
        ),
        "serve.cache_hit_ratio": metric(hit_total / max(1, lookups), "ratio"),
        "serve.journal_records_per_job": metric(journal_lines / n, "count"),
        "serve.rejected": metric(delta("serve.jobs_rejected"), "count"),
        "parallel.pool_rebuilds": metric(
            delta("serve.pool_rebuilds"), "count"
        ),
    })
    print(f"service max queue wait "
          f"{max(r['queue_wait'] for r in records) * 1e3:.3f} ms")
    return metrics, failed


def run(seed: int, seconds: float, trace: bool, smoke: bool):
    """One run of the service workload.

    Returns ``(attempted, failed, metrics, plan digest, qualities)``.
    """
    warm, cold = plan(seed, seconds, smoke)
    workdir = WORK_DIR / f"service-{os.getpid()}"
    cores = os.sched_getaffinity(0)
    front, back = min(cores), max(cores)
    setups, pids, server = [], [], None
    try:
        for sample in range(SETUP_SAMPLES):
            if server is not None:
                pids += server.stop()
            server = Server(workdir / f"server{sample}")
            setups.append(timed_start(server.start))
        connection = server.connection
        documents, replies = warm_up(connection, warm)
        stats_before = connection.json("GET", "/stats")[1]
        # The hit thread inherits the front core from this thread.
        os.sched_setaffinity(0, {front})
        hits = HitLoop(server.port, [submission(*w) for w in warm], replies)
        hits.start()
        try:
            records, failed_cold, probes = measured_loops(
                server, hits, cold, trace, front, back
            )
        finally:
            hits.stop()
        stats_after = connection.json("GET", "/stats")[1]
        rss = sum(peak_rss_mb(pid) for pid in server.processes())
    finally:
        if server is not None:
            pids += server.stop()
        os.sched_setaffinity(0, cores)
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK_DIR.is_dir() and not any(WORK_DIR.iterdir()):
            WORK_DIR.rmdir()
    print("service processes " + ",".join(map(str, pids)))

    def delta(name: str) -> float:
        return (stats_after["counters"].get(name, 0)
                - stats_before["counters"].get(name, 0))

    served = [(row, s, doc["metrics"]) for (row, s), doc in zip(warm, documents)]
    served += [(r["row"], r["seed"], r["metrics"]) for r in records]
    # A synthesis fails when its cold job failed or its result does not
    # verify; hit mismatches and server-side job failures fail the run.
    failed_syntheses = failed_cold + verify(served)
    failed = failed_syntheses + hits.failed + int(delta("serve.jobs_failed"))
    attempted = len(served) + failed_cold + hits.attempted
    qualities = [quality(r["metrics"]) for r in records]
    if trace:
        journal_lines = (stats_after["journal"]["lines"]
                         - stats_before["journal"]["lines"])
        metrics, trace_failed = traced_metrics(warm, records, delta,
                                               journal_lines)
        failed += trace_failed
    else:
        print_unscaled([r["latency"] for r in records],
                       [s for _, s in hits.samples],
                       [p for pair in probes for p in pair])

        def scaled(seconds: float, segment: int, core: int) -> float:
            """Hits by the front core's probes, cold jobs by the back's."""
            return at_reference(seconds, probes[segment][core],
                                probes[segment + 1][core])

        metrics = end_to_end(
            setups,
            [scaled(r["latency"], r["segment"], 1) for r in records],
            hit_summary([scaled(s, segment, 0)
                         for segment, s in hits.samples]),
            rss, len(served) + failed_cold, failed_syntheses, qualities,
        )
    plan_digest = digest({"warm": warm, "cold": cold})
    return attempted, failed, metrics, plan_digest, qualities
