"""Service load generator: the ``bench --serve`` tier.

Measures the two numbers that justify the service's existence:

* **Cold latency** — end-to-end ``POST /jobs?wait=`` time for a fresh
  submission (queue + pool + synthesis + cache write).
* **Hot latency** — one client replaying the same submissions
  sequentially against the now-warm content-addressed cache.  Every
  request is a cache hit measured *unloaded* (no queueing on the event
  loop), which is the honest per-request cost of memoisation; the
  distribution comes from the obs
  :class:`~repro.obs.histogram.Histogram` (p50/p90/p99).
* **Throughput under load** — many concurrent clients hammering the
  warm cache; the aggregate request rate plus the latency distribution
  *with* queueing.
* **Durable ingest** — with execution paused, two keep-alive clients
  pipeline fresh ``POST /jobs/batch`` requests (50 items each); every
  item is journaled and group-committed before its batch is answered.
  Items/s, best of :data:`INGEST_TRIALS` after one warmup.  This is the
  number that retired the multi-process front tier: one
  group-committing server out-ingests four backends behind it
  (``docs/PERFORMANCE.md``, "Batch ingest").

The headline gate: median cache-hit latency must be at least
``SPEEDUP_GATE``× faster than median cold synthesis — the artifact
(``BENCH_pr9.json``) records the ratio, and CI fails if memoisation
ever stops paying for itself.

The server under test is a real :class:`~repro.serve.server.SynthesisServer`
on an ephemeral port with throwaway state; clients are plain threads
using :class:`~repro.serve.client.ServeClient` — the same code paths a
production deployment exercises, minus the network between machines.
"""

from __future__ import annotations

import json
import tempfile
import threading
import time
from pathlib import Path
from typing import Any

from repro.errors import ReproError
from repro.obs.histogram import Histogram

__all__ = [
    "SPEEDUP_GATE",
    "run_serve_bench",
    "write_bench_json",
]

#: Required cold-median / hot-median ratio (cache hits must be at
#: least this much faster than synthesis).
SPEEDUP_GATE = 100.0

#: Default artifact of the serve tier.
DEFAULT_SERVE_OUTPUT = "BENCH_pr9.json"

#: Durable-ingest row: batch items per trial (full / ``--quick``),
#: timed trials after one warmup, pipelined keep-alive clients.
INGEST_ITEMS = 900
QUICK_INGEST_ITEMS = 400
INGEST_TRIALS = 3
INGEST_WORKERS = 2

#: Cold-phase submissions: (benchmark, seed) pairs.  Quick keeps CI
#: fast; full covers three assay shapes.
QUICK_PLAN = (("PCR", 1), ("PCR", 2))
FULL_PLAN = (("PCR", 1), ("PCR", 2), ("IVD", 1), ("CPA", 1))


def write_bench_json(path: Path, payload: dict) -> None:
    """Write the payload as stable, diff-friendly JSON."""
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _boot_server(state_dir: Path):
    """Start a throwaway server on an ephemeral port; returns
    ``(server, thread, client)``."""
    import asyncio

    from repro.serve.client import ServeClient
    from repro.serve.server import ServeConfig, SynthesisServer

    config = ServeConfig(
        port=0,
        pool_jobs=1,
        inflight=2,
        state_dir=state_dir,
        ledger=None,
        heartbeats=False,
        # The ingest row queues every trial's items while paused.
        queue_limit=1_000_000,
    )
    server = SynthesisServer(config)

    def runner() -> None:
        asyncio.run(server.run(install_signal_handlers=False))

    thread = threading.Thread(
        target=runner, name="repro-serve-bench", daemon=True
    )
    thread.start()
    if not server.ready.wait(30.0):
        raise ReproError("bench server failed to start within 30s")
    client = ServeClient(f"http://127.0.0.1:{server.bound_port}")
    return server, thread, client


def run_serve_bench(
    quick: bool = False,
    output: Path | None = None,
    clients: int | None = None,
    requests: int | None = None,
) -> int:
    """Run the serve tier; writes the artifact and returns an exit code."""
    import sys

    from repro.serve.client import ServeClient  # noqa: F401 (re-export)

    plan = QUICK_PLAN if quick else FULL_PLAN
    n_clients = clients if clients is not None else (4 if quick else 8)
    n_requests = requests if requests is not None else (25 if quick else 50)
    artifact = output or Path(DEFAULT_SERVE_OUTPUT)

    with tempfile.TemporaryDirectory(prefix="repro-serve-bench-") as tmp:
        server, thread, client = _boot_server(Path(tmp))
        try:
            submissions = [
                {"benchmark": name, "parameters": {"seed": seed}}
                for name, seed in plan
            ]

            # -- cold phase: first-ever submissions, full synthesis ----
            cold = Histogram()
            for submission in submissions:
                started = time.perf_counter()
                status, _, body = client.submit(submission, wait=600.0)
                elapsed = time.perf_counter() - started
                if status != 200 or body.get("status") != "done":
                    raise ReproError(
                        f"cold submission failed ({status}): {body}"
                    )
                if body.get("cached"):
                    raise ReproError(
                        f"cold submission unexpectedly cached: {submission}"
                    )
                cold.record(elapsed)
                print(
                    f"  cold {submission['benchmark']} "
                    f"seed={submission['parameters']['seed']}: "
                    f"{elapsed:.3f}s",
                    file=sys.stderr,
                )

            # -- hot phase: one client, sequential — unloaded cache-hit
            # latency, the number the speedup gate judges -------------
            hot = Histogram()
            for i in range(n_requests):
                submission = submissions[i % len(submissions)]
                started = time.perf_counter()
                status, _, body = client.submit(submission)
                elapsed = time.perf_counter() - started
                if status != 200 or not body.get("cached"):
                    print(
                        f"error: hot request not a cache hit "
                        f"({status}): {body.get('status')}",
                        file=sys.stderr,
                    )
                    return 1
                hot.record(elapsed)

            # -- load phase: concurrent clients hammer the warm cache —
            # aggregate throughput plus latency *with* queueing -------
            loaded = Histogram()
            load_lock = threading.Lock()
            errors: list[str] = []

            def hammer(worker: int) -> None:
                worker_client = type(client)(
                    f"http://127.0.0.1:{server.bound_port}"
                )
                for i in range(n_requests):
                    submission = submissions[(worker + i) % len(submissions)]
                    started = time.perf_counter()
                    try:
                        status, _, body = worker_client.submit(submission)
                    except ReproError as error:
                        with load_lock:
                            errors.append(str(error))
                        return
                    elapsed = time.perf_counter() - started
                    with load_lock:
                        if status != 200 or not body.get("cached"):
                            errors.append(
                                f"loaded request not a cache hit "
                                f"({status}): {body.get('status')}"
                            )
                            return
                        loaded.record(elapsed)

            wall_started = time.perf_counter()
            workers = [
                threading.Thread(target=hammer, args=(w,), daemon=True)
                for w in range(n_clients)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join()
            wall = time.perf_counter() - wall_started

            if errors:
                print(
                    f"error: load phase failed: {errors[0]}", file=sys.stderr
                )
                return 1

            stats = client.stats()

            # -- ingest phase: execution paused, so the row measures
            # accept + journal group commit alone ---------------------
            client._request("POST", "/admin/pause", {})
            try:
                ingest = _measure_ingest(
                    server.bound_port,
                    QUICK_INGEST_ITEMS if quick else INGEST_ITEMS,
                )
            except ReproError as error:
                print(f"error: ingest phase failed: {error}",
                      file=sys.stderr)
                return 1
        finally:
            try:
                client.shutdown()
            except ReproError:
                server.request_shutdown()
            thread.join(timeout=30.0)

    throughput = loaded.count / wall if wall > 0 else 0.0
    speedup = (
        (cold.p50 or 0.0) / hot.p50
        if hot.p50 and cold.p50
        else 0.0
    )
    speedup_ok = speedup >= SPEEDUP_GATE

    payload = {
        "schema": 1,
        "label": artifact.stem,
        "tier": "serve",
        "quick": quick,
        "plan": [{"benchmark": name, "seed": seed} for name, seed in plan],
        "clients": n_clients,
        "requests_per_client": n_requests,
        "cold_seconds": cold.summary(),
        "hot_seconds": hot.summary(),
        "loaded_seconds": loaded.summary(),
        "loaded_wall_seconds": round(wall, 6),
        "throughput_rps": round(throughput, 3),
        "cache": stats["cache"],
        "speedup_p50": round(speedup, 3),
        "speedup_gate": SPEEDUP_GATE,
        "speedup_ok": speedup_ok,
        "ingest": ingest,
    }
    write_bench_json(artifact, payload)

    print(f"\nserve tier: {len(plan)} cold submissions, "
          f"{hot.count} unloaded + {loaded.count} loaded cache hits "
          f"({n_clients} clients)")
    print(f"  cold p50: {cold.p50:.4f}s   hot p50: {hot.p50 * 1e3:.3f}ms   "
          f"p99: {hot.p99 * 1e3:.3f}ms")
    print(f"  loaded p50: {loaded.p50 * 1e3:.3f}ms   "
          f"p99: {loaded.p99 * 1e3:.3f}ms   "
          f"throughput: {throughput:.1f} req/s")
    print(f"  cache-hit speedup: {speedup:.0f}x "
          f"(gate: >={SPEEDUP_GATE:.0f}x)")
    print(f"  durable batch ingest: {ingest['items_per_s']:.0f} items/s "
          f"({ingest['items']} items, {ingest['workers']} pipelined "
          f"clients, best of {ingest['trials']})")
    print(f"wrote {artifact}")
    if not speedup_ok:
        print(
            f"error: cache-hit speedup {speedup:.1f}x below the "
            f"{SPEEDUP_GATE:.0f}x gate",
            file=sys.stderr,
        )
        return 1
    return 0


def _pipelined_ingest(
    host: str,
    port: int,
    submissions: list[dict[str, Any]],
    *,
    workers: int = 2,
    batch_size: int = 50,
    depth: int = 3,
) -> tuple[float, int]:
    """Drive ``POST /jobs/batch`` flat out; returns ``(wall_s, accepted)``.

    Requests are pre-serialised and pipelined ``depth`` deep over
    keep-alive sockets so client-side CPU and round-trip bubbles stay
    out of the measurement; response bodies are parsed after the clock
    stops for the same reason.
    """
    import json as _json
    import socket

    def make_request(items: list[dict[str, Any]]) -> bytes:
        body = _json.dumps({"jobs": items}, separators=(",", ":")).encode()
        return (
            f"POST /jobs/batch HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode() + body

    def read_response(sock: Any, buffer: bytes) -> tuple[int, bytes, bytes]:
        while b"\r\n\r\n" not in buffer:
            chunk = sock.recv(65536)
            if not chunk:
                raise ReproError("server closed mid-response")
            buffer += chunk
        head, _, buffer = buffer.partition(b"\r\n\r\n")
        status = int(head.split(b" ", 2)[1])
        length = 0
        for line in head.split(b"\r\n")[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        while len(buffer) < length:
            chunk = sock.recv(65536)
            if not chunk:
                raise ReproError("server closed mid-body")
            buffer += chunk
        return status, buffer[:length], buffer[length:]

    requests = [
        make_request(submissions[i: i + batch_size])
        for i in range(0, len(submissions) - batch_size + 1, batch_size)
    ]
    per_worker = (len(requests) + workers - 1) // workers
    chunks = [
        requests[w * per_worker: (w + 1) * per_worker]
        for w in range(workers)
    ]
    chunks = [chunk for chunk in chunks if chunk]
    bodies: list[bytes] = []
    errors: list[str] = []
    lock = threading.Lock()

    def drive(chunk: list[bytes]) -> None:
        try:
            sock = socket.create_connection((host, port), timeout=120.0)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            try:
                buffer = b""
                sent = got = inflight = 0
                received: list[bytes] = []
                while got < len(chunk):
                    while sent < len(chunk) and inflight < depth:
                        sock.sendall(chunk[sent])
                        sent += 1
                        inflight += 1
                    status, body, buffer = read_response(sock, buffer)
                    got += 1
                    inflight -= 1
                    if status != 200:
                        raise ReproError(
                            f"batch ingest got HTTP {status}: {body[:200]!r}"
                        )
                    received.append(body)
                with lock:
                    bodies.extend(received)
            finally:
                sock.close()
        except Exception as error:  # noqa: BLE001 - reported to caller
            with lock:
                errors.append(str(error))

    threads = [
        threading.Thread(target=drive, args=(chunk,), daemon=True)
        for chunk in chunks
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    if errors:
        raise ReproError(f"loaded ingest failed: {errors[0]}")
    accepted = 0
    for body in bodies:
        outcome = _json.loads(body)
        accepted += outcome.get("accepted", 0) + outcome.get("cached", 0)
        if outcome.get("rejected"):
            raise ReproError(
                f"loaded ingest saw {outcome['rejected']} rejections "
                "(queue limit too low for the bench)"
            )
    return wall, accepted


def _measure_ingest(port: int, items: int) -> dict[str, Any]:
    """The durable-ingest row against a paused server on *port*.

    One warmup trial (connections, allocator, GC), then the best of
    :data:`INGEST_TRIALS`; each trial submits *items* never-seen
    submissions, so every item is a cache miss that is journaled.
    Raises :class:`~repro.errors.ReproError` when any batch is not a
    200 or any item is rejected or lost.
    """
    best_rate, best_wall = 0.0, 0.0
    for trial in range(INGEST_TRIALS + 1):
        base = 10_000 + trial * items
        submissions = [
            {"benchmark": "PCR", "parameters": {"seed": base + i}}
            for i in range(items)
        ]
        wall, accepted = _pipelined_ingest(
            "127.0.0.1", port, submissions, workers=INGEST_WORKERS
        )
        if accepted != items:
            raise ReproError(
                f"ingest accepted {accepted} of {items} items"
            )
        if trial and accepted / wall > best_rate:
            best_rate, best_wall = accepted / wall, wall
    return {
        "items": items,
        "workers": INGEST_WORKERS,
        "trials": INGEST_TRIALS,
        "items_per_s": round(best_rate, 1),
        "wall_s": round(best_wall, 4),
    }
