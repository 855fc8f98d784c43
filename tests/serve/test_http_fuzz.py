"""Fuzzing ``POST /jobs`` and ``POST /jobs/batch`` over raw sockets.

Hypothesis-generated bodies — raw bytes, JSON values, submission-shaped
documents, nesting far deeper than the JSON parser recurses (under the
8 MiB body cap), oversized declared lengths and batches that mix valid
and hostile items — go to a paused server, so nothing is synthesised.
Every request must be answered within a timeout and never with a 5xx,
and the journal must hold exactly the jobs the responses accepted: a
rejected item is never journaled.
"""

from __future__ import annotations

import json
import socket

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.serve.http import MAX_BODY_BYTES
from repro.serve.jobs import read_journal
from tests.serve.test_protocol_fuzz import JSON, submissions
from tests.serve.test_server import _Harness

#: Seconds a response may take; a hang fails the exchange.
RESPONSE_TIMEOUT = 30.0

ENDPOINTS = ("/jobs", "/jobs/batch")


def _exchange(
    port: int, path: str, body: bytes, length: int | None = None
) -> tuple[int, object]:
    """POST *body* (declaring *length* bytes, default its own) on a
    fresh connection; returns the status and the decoded JSON body."""
    head = (
        f"POST {path} HTTP/1.1\r\nHost: test\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body) if length is None else length}\r\n"
        "Connection: close\r\n\r\n"
    )
    with socket.create_connection(
        ("127.0.0.1", port), timeout=RESPONSE_TIMEOUT
    ) as sock:
        sock.sendall(head.encode() + body)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    response = b"".join(chunks)
    head_bytes, _, payload = response.partition(b"\r\n\r\n")
    status = int(head_bytes.split(b"\r\n", 1)[0].split()[1])
    return status, json.loads(payload)


def _deep(depth: int, opener: str, closed: bool) -> str:
    """*depth* nested arrays or objects, closed around a ``0`` or not."""
    if opener == "[":
        return "[" * depth + ("0" + "]" * depth if closed else "")
    return '{"k":' * depth + ("0" + "}" * depth if closed else "")


#: Where a deep value sits in the body; ``@`` marks the spot.
DEEP_WRAPPERS = ("@", '{"jobs": @}', '{"jobs": [@]}', '{"benchmark": @}')

VALID_ITEMS = st.builds(
    lambda seed: {"benchmark": "PCR", "parameters": {"seed": seed}},
    st.integers(0, 10**6),
) | st.builds(
    lambda seed, job_id: {
        "benchmark": "PCR", "parameters": {"seed": seed}, "job_id": job_id,
    },
    st.integers(0, 3),
    st.sampled_from(("a", "b", "c")),
)


@st.composite
def requests(draw) -> tuple[str, bytes, int | None]:
    """``(path, body, declared length or None)`` of one hostile POST."""
    path = draw(st.sampled_from(ENDPOINTS))
    kind = draw(st.sampled_from(("raw", "json", "deep", "oversized", "batch")))
    if kind == "raw":
        return path, draw(st.binary(max_size=256)), None
    if kind == "json":
        document = draw(JSON | submissions() | VALID_ITEMS)
        return path, json.dumps(document).encode(), None
    if kind == "deep":
        depth = draw(st.sampled_from((1_000, 100_000, 1_000_000)))
        deep = _deep(
            depth, draw(st.sampled_from(("[", "{"))), draw(st.booleans())
        )
        body = draw(st.sampled_from(DEEP_WRAPPERS)).replace("@", deep)
        assert len(body) <= MAX_BODY_BYTES
        return path, body.encode(), None
    if kind == "oversized":
        return path, b"", MAX_BODY_BYTES + draw(st.integers(1, 10**6))
    items = draw(
        st.lists(VALID_ITEMS | JSON | submissions(), min_size=0, max_size=6)
    )
    return path, json.dumps({"jobs": items}).encode(), None


@pytest.fixture(scope="module")
def paused(tmp_path_factory):
    harness = _Harness(
        tmp_path_factory.mktemp("http-fuzz"), paused=True, queue_limit=100_000
    ).start()
    harness.accepted = set()
    yield harness
    harness.stop()


def _journaled(harness) -> set[str]:
    journal = harness.config.state_dir / "journal.jsonl"
    return {r["id"] for r in read_journal(journal) if r["kind"] == "job"}


def _record_accepted(harness, path: str, status: int, payload) -> None:
    """Add the jobs a response accepted to ``harness.accepted``."""
    if path == "/jobs":
        entries = [payload] if status in (200, 202) else []
    else:
        entries = payload["jobs"] if status == 200 else []
    for entry in entries:
        if entry.get("status") == "queued":
            harness.accepted.add(entry["job_id"])


class TestHttpFuzz:
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(request=requests())
    def test_no_500_no_hang_and_only_accepted_jobs_journaled(
        self, paused, request
    ):
        path, body, length = request
        status, payload = _exchange(
            paused.server.bound_port, path, body, length
        )
        _record_accepted(paused, path, status, payload)
        assert status < 500, payload
        if length is not None:
            assert status == 413
        assert _journaled(paused) == paused.accepted

    @pytest.mark.parametrize("endpoint", ENDPOINTS)
    @pytest.mark.parametrize("wrapper", ["@", '{"jobs": @}'])
    def test_deep_nesting_answers_400(self, paused, endpoint, wrapper):
        body = wrapper.replace("@", "[" * 200_000).encode()
        before = _journaled(paused)
        status, payload = _exchange(paused.server.bound_port, endpoint, body)
        assert status == 400, payload
        assert "nested too deeply" in payload["error"]
        assert _journaled(paused) == before
