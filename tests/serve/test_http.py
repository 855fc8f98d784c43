"""The HTTP front: incremental parsing, pipelining, caps, EOF, splicing.

Socket-level tests drive a real server (inline executor) over raw TCP,
so framing is exactly what the test writes: one byte at a time, many
requests in one ``sendall``, heads and bodies at their caps, a client
that closes mid-request.  Unit tests drive :class:`HttpConnection`
through a fake transport to pin down read and write backpressure, and
a property test holds :func:`dumps_with_raw` to the canonical JSON of
the spliced document.
"""

from __future__ import annotations

import asyncio
import json
import socket
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.digest import canonical_json
from repro.serve.http import (
    BUFFER_BYTES,
    MAX_BODY_BYTES,
    MAX_HEAD_BYTES,
    HttpConnection,
    dumps_with_raw,
)
from tests.serve.test_protocol_fuzz import JSON
from tests.serve.test_server import _Harness

TIMEOUT = 120.0


def hit_body(seed: int) -> bytes:
    return json.dumps(
        {"benchmark": "PCR", "parameters": {"seed": seed}}
    ).encode()


def request(
    method: str, path: str, body: bytes | None = None, length=None,
    headers: str = "",
) -> bytes:
    """One raw request; *length* overrides the declared body length."""
    head = f"{method} {path} HTTP/1.1\r\nHost: test\r\n{headers}"
    if body is not None:
        declared = len(body) if length is None else length
        head += (
            "Content-Type: application/json\r\n"
            f"Content-Length: {declared}\r\n"
        )
    return head.encode() + b"\r\n" + (body or b"")


def read_response(stream) -> tuple[int, dict[str, str], bytes, bytes]:
    """``(status, headers, body, raw bytes)`` of the next response."""
    raw = line = stream.readline()
    if not line:
        raise EOFError("connection closed before a response")
    status = int(line.split()[1])
    headers: dict[str, str] = {}
    while (line := stream.readline()) not in (b"\r\n", b""):
        raw += line
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    body = stream.read(int(headers.get("content-length", "0")))
    return status, headers, body, raw + line + body


class Client:
    """One raw keep-alive socket."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=TIMEOUT)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.stream = self.sock.makefile("rb")

    def send(self, data: bytes) -> None:
        self.sock.sendall(data)

    def response(self):
        return read_response(self.stream)

    def closed_by_server(self) -> bool:
        return self.stream.read() == b""

    def close(self) -> None:
        self.stream.close()
        self.sock.close()


@pytest.fixture(scope="module")
def warm(tmp_path_factory):
    """A server with PCR seeds 1 and 2 cached."""
    harness = _Harness(tmp_path_factory.mktemp("front")).start()
    for seed in (1, 2):
        status, _, _ = harness.raw(
            "POST", "/jobs?wait=120", json.loads(hit_body(seed))
        )
        assert status == 200
    yield harness
    harness.stop()


@pytest.fixture
def client(warm):
    instance = Client(warm.server.bound_port)
    yield instance
    instance.close()


def exchange(port: int, data: bytes, shut: bool = False):
    """Send *data* on a fresh connection (optionally half-closing it);
    returns the first response, or ``None`` if the server closed."""
    connection = Client(port)
    try:
        connection.send(data)
        if shut:
            connection.sock.shutdown(socket.SHUT_WR)
        try:
            return connection.response()
        except EOFError:
            return None
    finally:
        connection.close()


class TestFraming:
    def test_request_delivered_one_byte_at_a_time(self, warm, client):
        data = request("POST", "/jobs", hit_body(1))
        client.send(data)
        expected = client.response()
        for byte in data:
            client.send(bytes([byte]))
            time.sleep(0.001)
        assert client.response() == expected
        assert expected[0] == 200
        assert json.loads(expected[2])["cached"] is True

    def test_pipelined_requests_answer_in_order(self, warm, client):
        client.send(
            request("POST", "/jobs", hit_body(1))
            + request("GET", "/healthz")
            + request("POST", "/jobs", hit_body(2))
        )
        first, health, second = (client.response() for _ in range(3))
        assert json.loads(first[2])["result"]["seed"] == 1
        assert json.loads(health[2])["status"] == "ok"
        assert json.loads(second[2])["result"]["seed"] == 2

    def test_cache_hit_queued_behind_a_long_poll(self, warm, client):
        cold = hit_body(9001)
        client.send(
            request("POST", "/jobs?wait=120", cold)
            + request("POST", "/jobs", hit_body(1))
        )
        first, second = client.response(), client.response()
        assert first[0] == 200 and second[0] == 200
        polled, hit = json.loads(first[2]), json.loads(second[2])
        assert polled["status"] == "done" and polled["cached"] is False
        assert polled["result"]["seed"] == 9001
        assert hit["cached"] is True and hit["result"]["seed"] == 1

    def test_pipelined_requests_behind_a_full_buffer(self, warm, client):
        # More pipelined bytes than one read buffer holds, queued
        # behind a long-poll: reading pauses, then every request is
        # answered, in order.
        cold = request("POST", "/jobs?wait=120", hit_body(9002))
        hit = request("POST", "/jobs", hit_body(1))
        count = BUFFER_BYTES // len(hit) + 50
        client.send(cold + hit * count)
        polled = client.response()
        assert json.loads(polled[2])["result"]["seed"] == 9002
        replies = {client.response()[3] for _ in range(count)}
        assert len(replies) == 1


class TestCaps:
    @staticmethod
    def padded_head(size: int) -> bytes:
        base = request("GET", "/healthz", headers="X-Pad: \r\n")
        pad = size - len(base)
        return base.replace(b"X-Pad: ", b"X-Pad: " + b"a" * pad)

    def test_head_at_its_cap(self, warm):
        data = self.padded_head(MAX_HEAD_BYTES)
        assert len(data) == MAX_HEAD_BYTES
        status, _, body, _ = exchange(warm.server.bound_port, data)
        assert status == 200, body

    def test_head_one_byte_over_its_cap(self, warm):
        data = self.padded_head(MAX_HEAD_BYTES + 1)
        status, headers, body, _ = exchange(warm.server.bound_port, data)
        assert status == 413, body
        assert headers["connection"] == "close"

    def test_head_over_its_cap_without_a_blank_line(self, warm):
        data = b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"a" * MAX_HEAD_BYTES
        status, _, body, _ = exchange(warm.server.bound_port, data)
        assert status == 413, body

    def test_body_at_its_cap(self, warm):
        body = hit_body(1)
        body += b" " * (MAX_BODY_BYTES - len(body))
        status, _, reply, _ = exchange(
            warm.server.bound_port, request("POST", "/jobs", body)
        )
        assert status == 200
        assert json.loads(reply)["cached"] is True

    def test_body_one_byte_over_its_cap(self, warm):
        # Refused from the head alone: the body is never sent.
        status, headers, reply, _ = exchange(
            warm.server.bound_port,
            request("POST", "/jobs", b"", length=MAX_BODY_BYTES + 1),
        )
        assert status == 413, reply
        assert headers["connection"] == "close"


class TestTruncation:
    def test_eof_mid_head_is_400(self, warm):
        status, _, body, _ = exchange(
            warm.server.bound_port,
            b"POST /jobs HTTP/1.1\r\nHost: test\r\n",
            shut=True,
        )
        assert status == 400
        assert "truncated request head" in json.loads(body)["error"]

    @pytest.mark.parametrize("declared", [100, 4 * BUFFER_BYTES])
    def test_eof_mid_body_is_400(self, warm, declared):
        status, _, body, _ = exchange(
            warm.server.bound_port,
            request("POST", "/jobs", b'{"bench', length=declared),
            shut=True,
        )
        assert status == 400
        assert "truncated request body" in json.loads(body)["error"]

    def test_eof_after_a_request_answers_it_then_closes(self, warm):
        connection = Client(warm.server.bound_port)
        try:
            connection.send(request("POST", "/jobs", hit_body(1)) + b"\r\n")
            connection.sock.shutdown(socket.SHUT_WR)
            assert connection.response()[0] == 200
            assert connection.closed_by_server()
        finally:
            connection.close()

    def test_clean_eof_gets_no_reply(self, warm):
        assert exchange(warm.server.bound_port, b"", shut=True) is None

    def test_malformed_request_line_is_400(self, warm):
        status, _, body, _ = exchange(
            warm.server.bound_port, b"NONSENSE\r\n\r\n"
        )
        assert status == 400
        assert "malformed request line" in json.loads(body)["error"]


# ----------------------------------------------------------------------
# The connection object, through a fake transport
# ----------------------------------------------------------------------
class FakeTransport:
    def __init__(self) -> None:
        self.written = bytearray()
        self.reading = True
        self.closed = False

    def write(self, data: bytes) -> None:
        self.written += data

    def pause_reading(self) -> None:
        self.reading = False

    def resume_reading(self) -> None:
        self.reading = True

    def close(self) -> None:
        self.closed = True


def feed(conn: HttpConnection, data: bytes) -> bytes:
    """Deliver *data* the way the selector transport does, until the
    connection pauses reading; returns what was not delivered."""
    while data and conn.transport.reading:
        buffer = conn.get_buffer(-1)
        assert len(buffer) > 0
        chunk = data[: len(buffer)]
        buffer[: len(chunk)] = chunk
        conn.buffer_updated(len(chunk))
        data = data[len(chunk):]
    return data


class TestConnectionUnit:
    def test_pending_request_holds_the_queue_and_pauses_reading(self):
        async def scenario():
            release = asyncio.Event()
            seen = []

            def handler(request, conn):
                seen.append(request.path)
                if request.path == "/slow":
                    async def slow():
                        await release.wait()
                        conn.respond(200, b"slow", close=False)
                    return slow()
                conn.respond(200, request.path.encode(), close=False)
                return None

            transport = FakeTransport()
            conn = HttpConnection(handler)
            conn.connection_made(transport)
            quick = request("GET", "/q")
            count = BUFFER_BYTES // len(quick) + 10
            rest = feed(conn, request("GET", "/slow") + quick * count)
            assert seen == ["/slow"]
            assert rest and not transport.reading
            release.set()
            await asyncio.sleep(0)
            await asyncio.sleep(0)
            assert transport.reading
            assert feed(conn, rest + quick) == b""
            assert seen == ["/slow"] + ["/q"] * (count + 1)
            bodies = transport.written.split(b"\r\n\r\n")[1:]
            assert bodies[0].startswith(b"slow")
            assert transport.written.count(b"HTTP/1.1 200") == count + 2

        asyncio.run(scenario())

    def test_input_behind_a_stream_is_read_and_dropped(self):
        async def scenario():
            release = asyncio.Event()
            seen = []

            def handler(request, conn):
                seen.append(request.path)

                async def stream():
                    conn.start_stream("text/event-stream")
                    await release.wait()
                    conn.write(b"data: end\n\n")
                return stream()

            transport = FakeTransport()
            conn = HttpConnection(handler)
            conn.connection_made(transport)
            feed(conn, request("GET", "/events"))
            await asyncio.sleep(0)
            # feed() asserts that every buffer handed out has room.
            more = request("GET", "/q") * (3 * BUFFER_BYTES // 20)
            assert len(more) > 2 * BUFFER_BYTES
            assert feed(conn, more) == b""
            assert transport.reading and not transport.closed
            release.set()
            await asyncio.sleep(0)
            await asyncio.sleep(0)
            assert seen == ["/events"]
            assert transport.closed
            assert transport.written.endswith(b"data: end\n\n")

        asyncio.run(scenario())

    def test_drain_waits_for_resume_writing(self):
        async def scenario():
            conn = HttpConnection(lambda request, conn: None)
            conn.connection_made(FakeTransport())
            conn.pause_writing()
            drain = asyncio.ensure_future(conn.drain())
            await asyncio.sleep(0.01)
            assert not drain.done()
            conn.resume_writing()
            await asyncio.wait_for(drain, 1.0)

        asyncio.run(scenario())

    def test_drain_raises_once_the_connection_is_lost(self):
        async def scenario():
            conn = HttpConnection(lambda request, conn: None)
            conn.connection_made(FakeTransport())
            conn.pause_writing()
            drain = asyncio.ensure_future(conn.drain())
            await asyncio.sleep(0)
            conn.connection_lost(None)
            with pytest.raises(ConnectionResetError):
                await asyncio.wait_for(drain, 1.0)

        asyncio.run(scenario())

    def test_paused_writing_holds_further_requests(self):
        async def scenario():
            seen = []

            def handler(request, conn):
                seen.append(request.path)
                conn.respond(200, b"", close=False)

            conn = HttpConnection(handler)
            conn.connection_made(FakeTransport())
            conn.pause_writing()
            feed(conn, request("GET", "/a") + request("GET", "/b"))
            assert seen == []
            conn.resume_writing()
            assert seen == ["/a", "/b"]

        asyncio.run(scenario())


# ----------------------------------------------------------------------
# Splicing raw fields
# ----------------------------------------------------------------------
KEYS = st.text(max_size=8) | st.builds(
    lambda token: f"__raw_{token}__", st.text("0123456789abcdef", max_size=32)
)


@settings(max_examples=300, deadline=None)
@given(
    payload=st.dictionaries(KEYS, JSON, max_size=6),
    raw=st.dictionaries(KEYS, JSON, max_size=3),
)
def test_dumps_with_raw_is_the_canonical_json_of_the_spliced_document(
    payload, raw
):
    payload = {k: v for k, v in payload.items() if k not in raw}
    texts = {name: canonical_json(value) for name, value in raw.items()}
    spliced = {**payload, **{k: json.loads(t) for k, t in texts.items()}}
    assert dumps_with_raw(payload, texts) == canonical_json(spliced)


def test_client_string_shaped_like_a_placeholder_is_kept():
    payload = {"job_id": "__raw_0123456789abcdef0123456789abcdef__",
               "status": "done"}
    text = canonical_json({"x": [1, 2.5]})
    assert dumps_with_raw(payload, {"result": text}) == canonical_json(
        {**payload, "result": {"x": [1, 2.5]}}
    )
