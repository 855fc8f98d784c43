"""End-to-end HTTP tests: a real server on an ephemeral port.

The fixture boots :class:`~repro.serve.server.SynthesisServer` with an
inline (``pool_jobs=1``) executor and throwaway state, talks to it over
real TCP via :class:`~repro.serve.client.ServeClient` (and raw
``http.client`` where byte-level assertions matter), and drains it on
teardown.
"""

from __future__ import annotations

import asyncio
import json
import socket
import statistics
import threading
import time
from http.client import HTTPConnection

import pytest

from repro.assay.io import assay_to_dict
from repro.benchmarks.registry import get_benchmark
from repro.serve.client import ServeClient
from repro.serve.server import ServeConfig, SynthesisServer


PCR = {"benchmark": "PCR", "parameters": {"seed": 1}}


class _Harness:
    def __init__(self, tmp_path, **config_overrides):
        defaults = dict(
            port=0,
            pool_jobs=1,
            inflight=1,
            state_dir=tmp_path / "serve",
            ledger=tmp_path / "ledger.jsonl",
        )
        defaults.update(config_overrides)
        self.config = ServeConfig(**defaults)
        self.server = SynthesisServer(self.config)
        self.thread = threading.Thread(
            target=lambda: asyncio.run(
                self.server.run(install_signal_handlers=False)
            ),
            daemon=True,
        )

    def start(self) -> "_Harness":
        self.thread.start()
        assert self.server.ready.wait(30.0), "server failed to start"
        self.client = ServeClient(
            f"http://127.0.0.1:{self.server.bound_port}"
        )
        return self

    def stop(self) -> None:
        if self.thread.is_alive():
            self.server.request_shutdown()
            self.thread.join(timeout=30.0)
        assert not self.thread.is_alive(), "server failed to drain"

    def raw(self, method: str, path: str, body=None):
        """One raw HTTP exchange; returns (status, headers, bytes)."""
        connection = HTTPConnection(
            "127.0.0.1", self.server.bound_port, timeout=120
        )
        try:
            payload = None if body is None else json.dumps(body).encode()
            connection.request(
                method, path, body=payload,
                headers={"Content-Type": "application/json"}
                if payload else {},
            )
            response = connection.getresponse()
            return (
                response.status,
                {k.lower(): v for k, v in response.getheaders()},
                response.read(),
            )
        finally:
            connection.close()


@pytest.fixture
def harness(tmp_path):
    instance = _Harness(tmp_path).start()
    yield instance
    instance.stop()


class TestSubmitAndCache:
    def test_cold_then_cached_byte_identical(self, harness):
        status, _, first = harness.raw("POST", "/jobs?wait=120", PCR)
        assert status == 200
        cold = json.loads(first)
        assert cold["status"] == "done" and cold["cached"] is False

        status, _, second = harness.raw("POST", "/jobs", PCR)
        assert status == 200
        hit = json.loads(second)
        assert hit["cached"] is True

        # The acceptance bar: the cached result is byte-identical.  The
        # response embeds the result with canonical serialisation, so
        # the raw bytes of the "result" object must match exactly.
        def result_bytes(raw: bytes) -> bytes:
            # Slice the balanced "result" object out of the envelope.
            text = raw.decode("utf-8")
            start = text.index('"result":') + len('"result":')
            depth = 0
            for i in range(start, len(text)):
                if text[i] == "{":
                    depth += 1
                elif text[i] == "}":
                    depth -= 1
                    if depth == 0:
                        return text[start: i + 1].encode()
            raise AssertionError("unbalanced result object")

        assert result_bytes(first) == result_bytes(second)
        # And a third hit matches the second.
        _, _, third = harness.raw("POST", "/jobs", PCR)
        assert result_bytes(second) == result_bytes(third)

    def test_cache_counters_track_hits(self, harness):
        harness.raw("POST", "/jobs?wait=120", PCR)
        harness.raw("POST", "/jobs", PCR)
        harness.raw("POST", "/jobs", PCR)
        stats = harness.client.stats()
        assert stats["cache"]["hits"] == 2
        assert stats["cache"]["misses"] == 1
        assert stats["counters"]["serve.cache_hits"] == 2
        assert stats["counters"]["serve.jobs_done"] == 1

    def test_different_seeds_are_different_jobs(self, harness):
        a = harness.client.submit(
            {"benchmark": "PCR", "parameters": {"seed": 1}}, wait=120
        )[2]
        b = harness.client.submit(
            {"benchmark": "PCR", "parameters": {"seed": 2}}, wait=120
        )[2]
        assert a["digest"] != b["digest"]
        assert not a["cached"] and not b["cached"]

    def test_ledger_records_are_tagged_serve(self, harness, tmp_path):
        harness.client.submit(PCR, wait=120)
        records = [
            json.loads(line)
            for line in (tmp_path / "ledger.jsonl")
            .read_text()
            .splitlines()
        ]
        assert len(records) == 1
        assert records[0]["source"] == "serve"
        assert records[0]["benchmark"] == "PCR"
        assert "job_id" in records[0]


    def test_cache_hit_is_100x_faster_than_cold(self, harness):
        # Memoisation must keep paying for itself: the median cache hit
        # through the full HTTP path is at least 100x faster than the
        # median cold synthesis.  Each cold job is followed by a burst
        # of hits on it, so both medians sample the same host load.
        cold = []
        hits = []
        for seed in range(1, 6):
            submission = {"benchmark": "PCR", "parameters": {"seed": seed}}
            started = time.perf_counter()
            status, _, body = harness.raw(
                "POST", "/jobs?wait=120", submission
            )
            cold.append(time.perf_counter() - started)
            assert status == 200
            reply = json.loads(body)
            assert reply["status"] == "done" and reply["cached"] is False
            for _ in range(20):
                started = time.perf_counter()
                status, _, reply = harness.client.submit(submission)
                hits.append(time.perf_counter() - started)
                assert status == 200 and reply["cached"] is True

        assert statistics.median(cold) >= 100 * statistics.median(hits), (
            cold, statistics.median(hits)
        )

    def test_concurrent_keep_alive_hits_are_all_cached(self, harness):
        submissions = [
            {"benchmark": "PCR", "parameters": {"seed": seed}}
            for seed in (1, 2)
        ]
        for submission in submissions:
            assert harness.client.submit(submission, wait=120)[0] == 200

        url = f"http://127.0.0.1:{harness.server.bound_port}"
        replies: list[tuple[int, object]] = []
        lock = threading.Lock()

        def hammer(worker: int) -> None:
            with ServeClient(url) as client:
                for i in range(25):
                    status, _, body = client.submit(
                        submissions[(worker + i) % 2]
                    )
                    with lock:
                        replies.append((status, body.get("cached")))

        threads = [
            threading.Thread(target=hammer, args=(w,)) for w in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive(), "hit replay hung"
        assert replies == [(200, True)] * 100


class TestJobLifecycle:
    def test_no_wait_returns_202_then_result_via_status(self, harness):
        status, _, body = harness.raw("POST", "/jobs", PCR)
        assert status == 202
        accepted = json.loads(body)
        assert accepted["status"] == "queued"
        final = harness.client.wait_for(accepted["job_id"], timeout=120)
        assert final["status"] == "done"
        assert final["result"]["benchmark"] == "PCR"

    def test_client_job_id_is_idempotent(self, harness):
        doc = {**PCR, "job_id": "mine-1"}
        first = harness.client.submit(doc, wait=120)[2]
        assert first["job_id"] == "mine-1"
        # Resubmitting the same id returns the same (finished) job.
        status, _, body = harness.raw("POST", "/jobs", doc)
        # Finished + cache entry exists → served from cache.
        again = json.loads(body)
        assert status == 200
        assert again["status"] == "done"

    def test_unknown_job_is_404(self, harness):
        status, _, _ = harness.raw("GET", "/jobs/ghost")
        assert status == 404

    def test_invalid_submission_is_400(self, harness):
        for bad in (
            {"benchmark": "NoSuch"},
            {"benchmark": "PCR", "parameters": {"jobs": 4}},
            {"benchmark": "PCR", "nonsense": 1},
            [1, 2, 3],
        ):
            status, _, body = harness.raw("POST", "/jobs", bad)
            assert status == 400, bad
            assert "error" in json.loads(body)

    def test_removed_engines_are_400_and_not_journaled(self, harness):
        from repro.serve.jobs import read_journal

        journal = harness.config.state_dir / "journal.jsonl"
        before = read_journal(journal)
        for field, engine in (
            ("route_engine", "flat2"),
            ("route_engine", "reference"),
            ("placement_engine", "reference"),
        ):
            bad = {"benchmark": "PCR", "parameters": {field: engine}}
            status, _, body = harness.raw("POST", "/jobs", bad)
            assert status == 400, bad
            error = json.loads(body)["error"]
            assert engine in error and "engine" in error
        assert read_journal(journal) == before
        assert harness.client.stats()["counters"]["serve.requests_invalid"] == 3

    def test_garbage_body_is_400(self, harness):
        connection = HTTPConnection(
            "127.0.0.1", harness.server.bound_port, timeout=30
        )
        try:
            connection.request("POST", "/jobs", body=b"{not json")
            assert connection.getresponse().status == 400
        finally:
            connection.close()

    def test_events_stream_reaches_done(self, harness):
        status, _, body = harness.raw("POST", "/jobs", PCR)
        job_id = json.loads(body)["job_id"]
        kinds = [
            event.get("event")
            for event in harness.client.events(job_id)
        ]
        assert kinds[0] == "queued"
        assert "started" in kinds
        assert kinds[-2:] == ["done", "end"] or kinds[-1] == "end"


class TestBackpressure:
    def test_full_queue_gets_429_and_no_accepted_job_is_lost(self, tmp_path):
        harness = _Harness(tmp_path, queue_limit=1).start()
        try:
            outcomes = []
            for seed in range(1, 7):
                status, headers, body = harness.raw(
                    "POST",
                    "/jobs",
                    {"benchmark": "PCR", "parameters": {"seed": seed}},
                )
                outcomes.append((status, headers, json.loads(body)))
            rejected = [o for o in outcomes if o[0] == 429]
            accepted = [o for o in outcomes if o[0] == 202]
            assert rejected, "queue_limit=1 never produced a 429"
            for _, headers, body in rejected:
                assert int(headers["retry-after"]) >= 1
                assert body["retry_after"] >= 1
            # Every accepted job must reach a terminal state.
            for _, _, body in accepted:
                final = harness.client.wait_for(
                    body["job_id"], timeout=120
                )
                assert final["status"] == "done"
            stats = harness.client.stats()
            assert stats["counters"]["serve.jobs_rejected"] == len(rejected)
        finally:
            harness.stop()

    def test_batch_reports_per_item_outcomes(self, tmp_path):
        harness = _Harness(tmp_path, queue_limit=2).start()
        try:
            batch = [
                {"benchmark": "PCR", "parameters": {"seed": s}}
                for s in range(1, 6)
            ] + [{"benchmark": "NoSuch"}]
            response = harness.client.submit_batch(batch)
            entries = response["jobs"]
            assert len(entries) == 6
            statuses = [e["status"] for e in entries]
            assert "invalid" in statuses
            assert response["accepted"] >= 1
            assert response["rejected"] >= 1
            for entry in entries:
                if entry["status"] in ("queued", "running"):
                    final = harness.client.wait_for(
                        entry["job_id"], timeout=120
                    )
                    assert final["status"] == "done"
        finally:
            harness.stop()


class TestSubmitCli:
    def test_run_submit_prints_metrics_and_cache_marker(
        self, harness, capsys
    ):
        from repro.serve.client import run_submit

        url = f"http://127.0.0.1:{harness.server.bound_port}"
        assert run_submit(["PCR", "--seed", "1", "--url", url]) == 0
        cold = capsys.readouterr().out
        assert cold.startswith("PCR: ")
        assert "execution_time_s=" in cold
        assert "(cached)" not in cold

        assert run_submit(["PCR", "--seed", "1", "--url", url]) == 0
        hot = capsys.readouterr().out
        assert hot.startswith("PCR (cached): ")
        # The replayed metrics line is identical to the original's.
        assert hot.split(": ", 1)[1] == cold.split(": ", 1)[1]


class TestRestart:
    def test_cache_and_journal_survive_reboot(self, tmp_path):
        first = _Harness(tmp_path).start()
        try:
            cold = first.client.submit(PCR, wait=120)[2]
            job_id = cold["job_id"]
            assert cold["status"] == "done"
        finally:
            first.stop()

        second = _Harness(tmp_path).start()
        try:
            # Journal replay: the finished job's status is queryable.
            status = second.client.job(job_id)
            assert status["status"] == "done"
            # Cache replay: resubmission is a (disk-warmed) hit.
            hit = second.client.submit(PCR)[2]
            assert hit["cached"] is True
            assert (
                json.dumps(
                    hit["result"], sort_keys=True, separators=(",", ":")
                )
                == json.dumps(
                    cold["result"], sort_keys=True, separators=(",", ":")
                )
            )
        finally:
            second.stop()


class TestOperational:
    def test_healthz(self, harness):
        health = harness.client.healthz()
        assert health == {"status": "ok", "draining": False}

    def test_stats_shape(self, harness):
        stats = harness.client.stats()
        assert set(stats) >= {
            "uptime_s", "draining", "queue", "cache", "pool",
            "counters", "gauges", "histograms",
        }
        assert stats["queue"]["limit"] == harness.config.queue_limit
        assert stats["pool"]["jobs"] == 1

    def test_unknown_route_is_404(self, harness):
        assert harness.raw("GET", "/nope")[0] == 404

    def test_admin_shutdown_drains(self, tmp_path):
        harness = _Harness(tmp_path).start()
        response = harness.client.shutdown()
        assert response == {"status": "draining"}
        harness.thread.join(timeout=30.0)
        assert not harness.thread.is_alive()


class TestRetryAfterJitter:
    """Unit tests against an idle (never started) server so the hint's
    base is the configured fallback, not a live histogram mean."""

    @pytest.fixture()
    def idle_server(self, tmp_path):
        return SynthesisServer(
            ServeConfig(
                port=0,
                state_dir=tmp_path / "serve",
                retry_after=40.0,
            )
        )

    def test_deterministic_per_key(self, idle_server):
        first = idle_server._retry_after("job-abc")
        assert first == idle_server._retry_after("job-abc")
        assert first >= 1

    def test_jitter_stays_within_half_of_base(self, idle_server):
        import math

        base = idle_server.config.retry_after
        for key in (f"k{i}" for i in range(32)):
            value = idle_server._retry_after(key)
            assert base <= value <= math.ceil(base * 1.5)

    def test_keys_spread_the_herd(self, idle_server):
        values = {
            idle_server._retry_after(f"key-{i}") for i in range(32)
        }
        assert len(values) > 4, "jitter never separated the herd"

    def test_keyless_hint_is_the_plain_mean(self, idle_server):
        assert idle_server._retry_after() == idle_server.config.retry_after


class TestKeepAlive:
    def test_client_reuses_the_connection(self, harness):
        client = harness.client
        client.healthz()
        first = client._connection
        assert first is not None
        client.stats()
        assert client._connection is first

    def test_close_then_reconnect(self, harness):
        client = harness.client
        client.healthz()
        client.close()
        assert client._connection is None
        assert client.healthz()["status"] == "ok"


class TestPauseResume:
    def test_paused_accepts_but_does_not_execute(self, tmp_path):
        import time as _time

        harness = _Harness(tmp_path).start()
        try:
            assert harness.raw("POST", "/admin/pause")[0] == 200
            status, _, body = harness.raw("POST", "/jobs", PCR)
            assert status == 202
            job_id = json.loads(body)["job_id"]
            _time.sleep(0.4)
            assert harness.client.job(job_id)["status"] == "queued"
            assert harness.client.stats()["paused"] is True

            assert harness.raw("POST", "/admin/resume")[0] == 200
            final = harness.client.wait_for(job_id, timeout=120)
            assert final["status"] == "done"
        finally:
            harness.stop()


class TestSseResume:
    def test_start_resumes_at_exact_index(self, harness):
        status, _, body = harness.raw("POST", "/jobs", PCR)
        job_id = json.loads(body)["job_id"]
        harness.client.wait_for(job_id, timeout=120)
        full = list(harness.client.events(job_id))
        assert [e["i"] for e in full] == list(range(len(full)))
        resume_at = full[1]["i"]
        resumed = list(harness.client.events(job_id, start=resume_at))
        assert [e["i"] for e in resumed] == [
            e["i"] for e in full[1:]
        ]
        # Resuming past the end still delivers the terminal frame.
        tail = list(harness.client.events(job_id, start=full[-1]["i"]))
        assert tail[-1]["event"] == "end"

    def test_malformed_start_is_400(self, harness):
        status, _, body = harness.raw("POST", "/jobs", PCR)
        job_id = json.loads(body)["job_id"]
        harness.client.wait_for(job_id, timeout=120)
        assert harness.raw("GET", f"/jobs/{job_id}/events?start=x")[0] == 400
        assert harness.raw(
            "GET", f"/jobs/{job_id}/events?start=-1"
        )[0] == 400

    def test_follow_events_survives_dropped_connections(self, harness):
        """The reconnect loop resumes mid-stream without losing or
        repeating a frame — in particular the terminal ``done``."""
        from repro.serve.client import ServeUnavailableError

        status, _, body = harness.raw("POST", "/jobs", PCR)
        job_id = json.loads(body)["job_id"]
        harness.client.wait_for(job_id, timeout=120)

        client = harness.client
        real_events = client.events
        calls = []

        def flaky_events(job_id, start=0):
            calls.append(start)
            frames = list(real_events(job_id, start=start))
            if len(calls) == 1:
                # First connection dies after two frames.
                yield from frames[:2]
                raise ServeUnavailableError("injected drop")
            yield from frames

        client.events = flaky_events
        try:
            followed = list(client.follow_events(job_id))
        finally:
            del client.events
        full = list(real_events(job_id))
        assert [e["i"] for e in followed] == [e["i"] for e in full]
        assert followed[-1]["event"] == "end"
        # The reconnect resumed exactly after the last seen frame.
        assert calls == [0, 2]


class TestEvictionEndToEnd:
    def test_evicted_entry_resynthesises_byte_identical(self, tmp_path):
        """--cache-limit satellite: after LRU eviction the service
        re-synthesises the evicted submission and serves byte-identical
        result text (determinism makes eviction safe)."""
        harness = _Harness(tmp_path, cache_limit=1).start()
        try:
            first = harness.raw("POST", "/jobs?wait=120", PCR)[2]
            other = {"benchmark": "PCR", "parameters": {"seed": 9}}
            harness.raw("POST", "/jobs?wait=120", other)
            stats = harness.client.stats()
            assert stats["cache"]["evictions"] >= 1
            assert stats["counters"]["serve.cache_evictions"] >= 1
            assert stats["cache"]["entries"] == 1

            # PCR seed=1 was evicted: this is a fresh synthesis …
            status, _, again = harness.raw("POST", "/jobs?wait=120", PCR)
            assert status == 200
            assert json.loads(again)["cached"] is False

            # … but the result object is byte-for-byte the original.
            def result_bytes(raw: bytes) -> bytes:
                text = raw.decode("utf-8")
                start = text.index('"result":') + len('"result":')
                depth = 0
                for i in range(start, len(text)):
                    if text[i] == "{":
                        depth += 1
                    elif text[i] == "}":
                        depth -= 1
                        if depth == 0:
                            return text[start: i + 1].encode()
                raise AssertionError("unbalanced result object")

            first_result = json.loads(result_bytes(first))
            again_result = json.loads(result_bytes(again))
            assert (
                first_result["solution_digest"]
                == again_result["solution_digest"]
            )
            assert first_result["metrics"].keys() == (
                again_result["metrics"].keys()
            )
            for key, value in first_result["metrics"].items():
                if key != "cpu_time_s":
                    assert again_result["metrics"][key] == value, key
        finally:
            harness.stop()


# Each of these once answered 500 (TypeError/ValueError) or a doomed
# 202 whose job could only fail in a worker.
MALFORMED = [
    pytest.param(
        {"benchmark": "PCR", "parameters": {"restarts": "2"}},
        id="restarts-string",
    ),
    pytest.param(
        {"benchmark": "PCR", "parameters": {"transport_time": [1]}},
        id="transport_time-array",
    ),
    pytest.param({"assay": "x"}, id="assay-string"),
    pytest.param(
        {"benchmark": "PCR", "parameters": {"seed": "x"}},
        id="seed-string",
    ),
    pytest.param(
        {"benchmark": "PCR",
         "parameters": {"iterations_per_temperature": None}},
        id="iterations-null",
    ),
    # Well-typed but out of range: each was accepted, then failed in a
    # worker (or, for beta, returned a degenerate layout).
    pytest.param(
        {"benchmark": "PCR", "parameters": {"cooling_rate": 1.0}},
        id="cooling_rate-one",
    ),
    pytest.param(
        {"benchmark": "PCR", "parameters": {"grid_fill_ratio": 0}},
        id="grid_fill_ratio-zero",
    ),
    pytest.param(
        {"benchmark": "PCR", "parameters": {"grid_fill_ratio": -1}},
        id="grid_fill_ratio-negative",
    ),
    pytest.param(
        {"benchmark": "PCR", "parameters": {"cell_pitch_mm": 0}},
        id="cell_pitch_mm-zero",
    ),
    pytest.param(
        {"benchmark": "PCR",
         "parameters": {"iterations_per_temperature": 0}},
        id="iterations-zero",
    ),
    pytest.param(
        {"benchmark": "PCR", "parameters": {"transport_time": float("nan")}},
        id="transport_time-nan",
    ),
    pytest.param(
        {"benchmark": "PCR", "parameters": {"beta": float("inf")}},
        id="beta-infinity",
    ),

]

# In range but oversized: each was accepted, then synthesised a grid of
# billions of cells until the worker ran out of memory.
OVERSIZED = [
    pytest.param(
        {"benchmark": "PCR", "parameters": {"grid_fill_ratio": 1e-9}},
        id="grid_fill_ratio-tiny",
    ),
    pytest.param(
        {
            "assay": assay_to_dict(get_benchmark("PCR").assay),
            "allocation": {"mixers": 10**6},
        },
        id="allocation-huge",
    ),
]

# In range but unbounded work: each was accepted and, with no deadline,
# held a pool worker for hours or more.
UNBOUNDED_ANNEALING = [
    pytest.param(
        {"benchmark": "PCR",
         "parameters": {"cooling_rate": 0.999999999,
                        "iterations_per_temperature": 1000000000}},
        id="cooling_rate-near-one",
    ),
    pytest.param(
        {"benchmark": "PCR",
         "parameters": {"cooling_rate": 0.999999999,
                        "iterations_per_temperature": 1000000000,
                        "restarts": 1000000}},
        id="restarts-huge",
    ),
]


class TestMalformedParameters:
    @pytest.mark.parametrize("endpoint", ["/jobs", "/jobs/batch"])
    @pytest.mark.parametrize("bad", MALFORMED)
    def test_rejected_at_the_door_and_not_journaled(
        self, harness, bad, endpoint
    ):
        from repro.serve.jobs import read_journal

        journal = harness.config.state_dir / "journal.jsonl"
        before = read_journal(journal)
        if endpoint == "/jobs":
            status, _, body = harness.raw("POST", endpoint, bad)
            assert status == 400, bad
            assert "error" in json.loads(body)
        else:
            status, _, body = harness.raw("POST", endpoint, {"jobs": [bad]})
            assert status == 200, bad
            response = json.loads(body)
            assert [e["status"] for e in response["jobs"]] == ["invalid"]
            assert response["accepted"] == 0
        assert read_journal(journal) == before

    @pytest.mark.parametrize("endpoint", ["/jobs", "/jobs/batch"])
    @pytest.mark.parametrize("bad", OVERSIZED)
    def test_oversized_grid_rejected_at_the_door(
        self, tmp_path, bad, endpoint
    ):
        # Paused, so a submission that slipped through would sit queued
        # (and fail the assertions) instead of being synthesised.
        from repro.serve.jobs import read_journal

        harness = _Harness(tmp_path, paused=True).start()
        try:
            journal = harness.config.state_dir / "journal.jsonl"
            before = read_journal(journal)
            if endpoint == "/jobs":
                status, _, body = harness.raw("POST", endpoint, bad)
                assert status == 400
                assert "cell limit" in json.loads(body)["error"]
            else:
                response = harness.client.submit_batch([bad])
                assert [e["status"] for e in response["jobs"]] == [
                    "invalid"
                ]
                assert "cell limit" in response["jobs"][0]["error"]
                assert response["accepted"] == 0
            assert read_journal(journal) == before
        finally:
            harness.stop()

    @pytest.mark.parametrize("endpoint", ["/jobs", "/jobs/batch"])
    def test_too_many_operations_rejected_at_the_door(
        self, tmp_path, endpoint
    ):
        from repro.core.problem import MAX_OPERATIONS
        from repro.serve.jobs import read_journal
        from tests.core.test_problem import chain_assay

        bad = {
            "assay": assay_to_dict(chain_assay(MAX_OPERATIONS + 1)),
            "allocation": {"mixers": 1},
        }
        harness = _Harness(tmp_path, paused=True).start()
        try:
            journal = harness.config.state_dir / "journal.jsonl"
            before = read_journal(journal)
            if endpoint == "/jobs":
                status, _, body = harness.raw("POST", endpoint, bad)
                assert status == 400
                assert "operation limit" in json.loads(body)["error"]
            else:
                response = harness.client.submit_batch([bad])
                assert [e["status"] for e in response["jobs"]] == [
                    "invalid"
                ]
                assert "operation limit" in response["jobs"][0]["error"]
                assert response["accepted"] == 0
            assert read_journal(journal) == before
        finally:
            harness.stop()

    @pytest.mark.parametrize("endpoint", ["/jobs", "/jobs/batch"])
    @pytest.mark.parametrize("bad", UNBOUNDED_ANNEALING)
    def test_unbounded_annealing_rejected_at_the_door(
        self, tmp_path, bad, endpoint
    ):
        # Paused, so a submission that slipped through would sit queued
        # (and fail the assertions) instead of holding a worker.
        from repro.serve.jobs import read_journal

        harness = _Harness(tmp_path, paused=True).start()
        try:
            journal = harness.config.state_dir / "journal.jsonl"
            before = read_journal(journal)
            if endpoint == "/jobs":
                status, _, body = harness.raw("POST", endpoint, bad)
                assert status == 400
                assert "trial limit" in json.loads(body)["error"]
            else:
                response = harness.client.submit_batch([bad])
                assert [e["status"] for e in response["jobs"]] == [
                    "invalid"
                ]
                assert "trial limit" in response["jobs"][0]["error"]
                assert response["accepted"] == 0
            assert read_journal(journal) == before
        finally:
            harness.stop()

    def test_batch_keeps_the_good_item_and_rejects_the_bad(self, tmp_path):
        harness = _Harness(tmp_path, paused=True).start()
        try:
            bad = {"benchmark": "PCR", "parameters": {"restarts": "2"}}
            response = harness.client.submit_batch([PCR, bad])
            assert [e["status"] for e in response["jobs"]] == [
                "queued", "invalid",
            ]
            assert "restarts" in response["jobs"][1]["error"]
        finally:
            harness.stop()


class _FsyncLog:
    """Counts journal fsyncs and response writes, in order."""

    def __init__(self, monkeypatch):
        import os

        import repro.serve.jobs as jobs_module
        import repro.serve.server as server_module

        self.order: list[str] = []
        real_fsync, real_write = os.fsync, server_module.write_json

        def fsync(fd):
            self.order.append("fsync")
            return real_fsync(fd)

        async def write_json(writer, status, *args, **kwargs):
            self.order.append(f"write {status}")
            return await real_write(writer, status, *args, **kwargs)

        monkeypatch.setattr(jobs_module.os, "fsync", fsync)
        monkeypatch.setattr(server_module, "write_json", write_json)

    @property
    def fsyncs(self) -> int:
        return self.order.count("fsync")

    def clear(self) -> None:
        self.order.clear()


def _seeds(start: int, n: int) -> list[dict]:
    return [
        {"benchmark": "PCR", "parameters": {"seed": seed}}
        for seed in range(start, start + n)
    ]


class TestGroupCommit:
    """``POST /jobs/batch`` fsyncs the journal once, before replying;
    every other journal append keeps its own fsync."""

    @pytest.fixture()
    def paused(self, tmp_path):
        instance = _Harness(tmp_path, paused=True).start()
        yield instance
        instance.stop()

    def test_batch_costs_one_fsync_single_submit_one(
        self, paused, monkeypatch
    ):
        log = _FsyncLog(monkeypatch)
        response = paused.client.submit_batch(_seeds(100, 50))
        assert response["accepted"] == 50
        assert log.order == ["fsync", "write 200"]

        log.clear()
        status, _, _ = paused.raw("POST", "/jobs", _seeds(200, 1)[0])
        assert status == 202
        assert log.order == ["fsync", "write 202"]

    def test_rejected_and_invalid_tail_still_syncs_accepted(
        self, tmp_path, monkeypatch
    ):
        from repro.serve.jobs import read_journal

        harness = _Harness(tmp_path, paused=True, queue_limit=2).start()
        try:
            log = _FsyncLog(monkeypatch)
            batch = _seeds(300, 4) + [{"benchmark": "NoSuch"}]
            response = harness.client.submit_batch(batch)
            assert [e["status"] for e in response["jobs"]] == [
                "queued", "queued", "rejected", "rejected", "invalid",
            ]
            assert log.order == ["fsync", "write 200"]
            journal = harness.config.state_dir / "journal.jsonl"
            journaled = {r["id"] for r in read_journal(journal)}
            assert {e["job_id"] for e in response["jobs"][:2]} <= journaled
        finally:
            harness.stop()

    def test_exception_mid_batch_syncs_before_the_500(
        self, paused, monkeypatch
    ):
        import repro.serve.server as server_module
        from repro.serve.jobs import read_journal

        real_parse = server_module.parse_submission
        calls = []

        def exploding(item):
            calls.append(item)
            if len(calls) == 2:
                raise RuntimeError("injected")
            return real_parse(item)

        monkeypatch.setattr(server_module, "parse_submission", exploding)
        log = _FsyncLog(monkeypatch)
        status, _, _ = paused.raw(
            "POST", "/jobs/batch", {"jobs": _seeds(400, 3)}
        )
        assert status == 500
        assert log.order == ["fsync", "write 500"]
        journal = paused.config.state_dir / "journal.jsonl"
        assert [r["kind"] for r in read_journal(journal)] == ["job"]

    def test_all_acknowledged_batch_items_replay_as_queued(self, tmp_path):
        first = _Harness(tmp_path, paused=True).start()
        try:
            response = first.client.submit_batch(_seeds(500, 20))
            job_ids = [e["job_id"] for e in response["jobs"]]
            assert response["accepted"] == 20
        finally:
            first.stop()

        second = _Harness(tmp_path, paused=True).start()
        try:
            for job_id in job_ids:
                assert second.client.job(job_id)["status"] == "queued"
        finally:
            second.stop()

    def test_start_and_done_records_keep_their_own_fsync(
        self, tmp_path, monkeypatch
    ):
        harness = _Harness(tmp_path, paused=True, ledger=None).start()
        try:
            log = _FsyncLog(monkeypatch)
            status, _, body = harness.raw("POST", "/jobs", PCR)
            assert status == 202
            harness.raw("POST", "/admin/resume")
            harness.client.wait_for(json.loads(body)["job_id"], timeout=120)
            # Journal job + start + done lines, one fsync each, plus
            # the result-cache entry's own.
            assert log.fsyncs == 4
        finally:
            harness.stop()

    def test_pipelined_batches_all_accepted(self, tmp_path):
        # 400 fresh submissions as 50-item batches, pipelined 3 deep
        # over 2 keep-alive sockets: every batch is answered 200, in
        # request order, and every item is accepted.
        harness = _Harness(tmp_path, paused=True, queue_limit=1000).start()
        try:
            items = _seeds(10_000, 400)
            batches = [items[i: i + 50] for i in range(0, 400, 50)]
            per_socket = [batches[0::2], batches[1::2]]
            answers: list[list[tuple[int, dict]]] = [[], []]
            errors: list[Exception] = []

            def drive(index: int) -> None:
                try:
                    answers[index] = _pipeline(
                        harness.server.bound_port, per_socket[index], depth=3
                    )
                except Exception as error:  # surfaced below
                    errors.append(error)

            threads = [
                threading.Thread(target=drive, args=(i,)) for i in (0, 1)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive(), "pipelined ingest hung"
            assert not errors, errors

            from repro.serve.protocol import parse_submission

            accepted = rejected = 0
            for sent, received in zip(per_socket, answers):
                assert len(received) == len(sent)
                for batch, (status, response) in zip(sent, received):
                    assert status == 200
                    # In request order: each response lists exactly the
                    # digests of the batch sent in its position.
                    assert [e["digest"] for e in response["jobs"]] == [
                        parse_submission(item).digest for item in batch
                    ]
                    accepted += response["accepted"]
                    rejected += response["rejected"]
            assert accepted == 400
            assert rejected == 0
        finally:
            harness.stop()


def _pipeline(
    port: int, batches: list[list[dict]], depth: int
) -> list[tuple[int, dict]]:
    """Send ``POST /jobs/batch`` requests on one raw keep-alive socket,
    up to *depth* ahead of the responses; returns ``(status, body)``
    per request, in arrival order."""

    def request(batch: list[dict]) -> bytes:
        body = json.dumps({"jobs": batch}).encode()
        head = (
            "POST /jobs/batch HTTP/1.1\r\nHost: test\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        )
        return head.encode() + body

    def response(stream) -> tuple[int, dict]:
        status = int(stream.readline().split()[1])
        length = 0
        while (line := stream.readline()) not in (b"\r\n", b""):
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        return status, json.loads(stream.read(length))

    received: list[tuple[int, dict]] = []
    with socket.create_connection(
        ("127.0.0.1", port), timeout=120
    ) as sock, sock.makefile("rb") as stream:
        sent = 0
        while len(received) < len(batches):
            while sent < len(batches) and sent - len(received) < depth:
                sock.sendall(request(batches[sent]))
                sent += 1
            received.append(response(stream))
    return received


class TestHeartbeats:
    def test_full_event_log_counts_dropped_beats(self, tmp_path, monkeypatch):
        import repro.serve.server as server_module

        # One retained event: every progress beat of the job — at least
        # the relay's final "done" beat — overflows the log.
        monkeypatch.setattr(server_module, "MAX_JOB_EVENTS", 1)
        harness = _Harness(tmp_path).start()
        try:
            assert harness.raw("POST", "/jobs?wait=120", PCR)[0] == 200
            deadline = time.monotonic() + 30.0
            dropped = 0
            while dropped < 1 and time.monotonic() < deadline:
                counters = harness.client.stats()["counters"]
                dropped = counters.get("serve.heartbeats_dropped", 0)
                time.sleep(0.05)
            assert dropped >= 1
        finally:
            harness.stop()

    def test_pooled_job_streams_sa_progress(self, tmp_path):
        # The default server runs jobs on a process pool; its beats
        # cross the pipe the workers inherit.  Nothing is forked before
        # the first job: the pool starts with it, and there is no
        # channel process.
        import multiprocessing

        before = {p.pid for p in multiprocessing.active_children()}
        harness = _Harness(tmp_path, pool_jobs=2).start()
        try:
            idle = {p.pid for p in multiprocessing.active_children()}
            assert idle - before == set()
            status, _, body = harness.raw(
                "POST", "/jobs", {"benchmark": "CPA", "parameters": {"seed": 5}}
            )
            assert status == 202
            events = list(harness.client.events(json.loads(body)["job_id"]))
        finally:
            harness.stop()
        kinds = [event.get("event") for event in events]
        assert "done" in kinds
        sa = [
            index for index, event in enumerate(events)
            if event.get("event") == "progress" and event.get("kind") == "sa"
        ]
        assert sa and sa[0] < kinds.index("done")
        first = events[sa[0]]
        assert "temperature" in first and "best_energy" in first

    def test_no_heartbeats_option_is_gone(self):
        from repro.serve.server import run_serve

        with pytest.raises(SystemExit) as excinfo:
            run_serve(["--no-heartbeats"])
        assert excinfo.value.code == 2
