"""The server's memo of parsed ``POST /jobs`` bodies.

A repeated body reuses its earlier :class:`Submission` instead of
running :func:`parse_submission` again.  Replies and counters must not
tell the difference; invalid bodies are never kept; the memo is bounded
in entries and in body size, and belongs to one server.
"""

from __future__ import annotations

import copy
import json

import pytest

import repro.serve.server as server_module
from repro.serve.server import MEMO_BODY_BYTES, MEMO_ENTRIES
from tests.serve.test_http import Client, hit_body, request
from tests.serve.test_server import _Harness


@pytest.fixture(scope="module")
def warm(tmp_path_factory):
    """A server with PCR seed 1 cached."""
    harness = _Harness(tmp_path_factory.mktemp("memo")).start()
    status, _, _ = harness.raw(
        "POST", "/jobs?wait=120", json.loads(hit_body(1))
    )
    assert status == 200
    yield harness
    harness.stop()


@pytest.fixture
def parses(monkeypatch):
    """Every body :func:`parse_submission` is called on, in order."""
    calls = []
    real = server_module.parse_submission

    def counting(data):
        calls.append(data)
        return real(data)

    monkeypatch.setattr(server_module, "parse_submission", counting)
    return calls


def replies(port: int, body: bytes, n: int) -> list:
    client = Client(port)
    try:
        client.send(request("POST", "/jobs", body) * n)
        return [client.response() for _ in range(n)]
    finally:
        client.close()


def padded(body: bytes, spaces: int) -> bytes:
    """An equal submission spelled with *spaces* more bytes."""
    return body[:-1] + b" " * spaces + body[-1:]


class TestSubmissionMemo:
    def test_repeated_body_replies_byte_identical_counting_each(
        self, warm, parses
    ):
        body = padded(hit_body(1), 1)
        before = warm.client.stats()
        answers = replies(warm.server.bound_port, body, 5)
        after = warm.client.stats()
        assert len(parses) == 1
        assert {raw for *_, raw in answers} == {answers[0][3]}
        assert answers[0][0] == 200
        assert json.loads(answers[0][2])["cached"] is True
        for name in ("serve.requests", "serve.cache_hits"):
            assert (
                after["counters"][name] - before["counters"].get(name, 0)
            ) == 5
        seconds = "serve.request_seconds"
        assert (
            after["histograms"][seconds]["count"]
            - before["histograms"][seconds]["count"]
        ) == 5

    def test_invalid_body_is_the_same_400_every_time_and_not_kept(
        self, warm, parses
    ):
        body = b'{"benchmark": "NoSuch"}'
        before = warm.client.stats()["counters"]
        answers = replies(warm.server.bound_port, body, 2)
        assert [status for status, *_ in answers] == [400, 400]
        assert answers[0][3] == answers[1][3]
        assert len(parses) == 2
        assert body not in warm.server._submissions
        after = warm.client.stats()["counters"]
        assert after["serve.requests_invalid"] - before.get(
            "serve.requests_invalid", 0
        ) == 2

    def test_body_over_the_size_bound_is_parsed_every_time(
        self, warm, parses
    ):
        body = padded(hit_body(1), MEMO_BODY_BYTES)
        assert len(body) > MEMO_BODY_BYTES
        answers = replies(warm.server.bound_port, body, 2)
        assert [status for status, *_ in answers] == [200, 200]
        assert len(parses) == 2
        assert body not in warm.server._submissions

    def test_body_at_the_size_bound_is_kept(self, warm, parses):
        body = hit_body(1)
        body = padded(body, MEMO_BODY_BYTES - len(body))
        assert len(body) == MEMO_BODY_BYTES
        replies(warm.server.bound_port, body, 2)
        assert len(parses) == 1
        assert body in warm.server._submissions

    def test_entry_bound_drops_the_oldest(self, warm):
        bodies = [
            padded(hit_body(1), 10 + k) for k in range(MEMO_ENTRIES + 20)
        ]
        client = Client(warm.server.bound_port)
        try:
            for body in bodies:
                client.send(request("POST", "/jobs", body))
                assert client.response()[0] == 200
        finally:
            client.close()
        memo = warm.server._submissions
        assert len(memo) == MEMO_ENTRIES
        assert bodies[-1] in memo and bodies[0] not in memo

    def test_memoised_document_is_never_mutated(self, warm):
        body = json.dumps(
            {"benchmark": "PCR", "parameters": {"seed": 1},
             "job_id": "memo-doc"}
        ).encode()
        first = replies(warm.server.bound_port, body, 1)[0]
        kept = warm.server._submissions[body]
        snapshot = copy.deepcopy(kept.document)
        again = replies(warm.server.bound_port, body, 3)
        assert kept.document == snapshot
        assert warm.server._submissions[body] is kept
        job_ids = {json.loads(r[2])["job_id"] for r in [first, *again]}
        assert job_ids == {"memo-doc"}

    def test_two_servers_share_no_memo(self, warm, tmp_path, parses):
        other = _Harness(tmp_path, paused=True).start()
        try:
            body = padded(hit_body(3), 2)
            replies(other.server.bound_port, body, 2)
            assert body in other.server._submissions
            assert body not in warm.server._submissions
            replies(warm.server.bound_port, body, 1)
            assert len(parses) == 2
            assert (
                warm.server._submissions[body]
                is not other.server._submissions[body]
            )
        finally:
            other.stop()
