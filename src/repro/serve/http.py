"""Minimal asyncio HTTP/1.1 front for the synthesis service.

Just enough protocol for a JSON API plus Server-Sent Events, on one
stdlib ``asyncio.BufferedProtocol`` per connection — the repository's
no-new-dependencies rule is a feature here: the service deploys
anywhere the library does.

:class:`HttpConnection` reads with ``recv_into`` into one reusable
64 KiB buffer per connection and parses requests incrementally out of
it.  A plain ``asyncio.Protocol``, the streams API's included, is handed
a fresh 256 KiB ``bytes`` object by the selector transport on every
``recv()``, and depending on the allocator's state that memory goes
back to the OS and is faulted in again per request (2.9 minor faults
per cache hit for this front fed through ``data_received``).  A body
larger than the buffer is read straight into its own buffer of the
declared length.

Each parsed request goes to the handler, which either answers it at
once (from the read callback: cache hits, status reads, ``/stats``)
or returns a coroutine that the connection runs as a task (long-polls,
SSE streams, batches).  The connection parses nothing further until
that task finishes, so pipelined responses leave in request order;
bytes that arrive meanwhile stay buffered, and reading pauses once the
buffer is full.  Once a response has closed the connection (an SSE
stream), further input is read and dropped.

Scope (deliberate):

* request line + headers + ``Content-Length`` bodies (no chunked
  request bodies, no multipart);
* keep-alive for JSON exchanges: responses carry ``Content-Length``
  and ``Connection: keep-alive``, so one client connection serves many
  requests (per-request TCP setup was measurable in the load
  generator); a client may still opt out with ``Connection: close``,
  and SSE streams always close (the body is connection-delimited);
* hard caps on header and body size (413), so a confused client cannot
  balloon the server; a malformed or truncated request is a 400;
* write backpressure: while the transport's buffer is over its high
  water mark no further request is answered, and SSE writers wait in
  :meth:`HttpConnection.drain`.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable
from urllib.parse import parse_qsl, unquote, urlsplit

from repro.core.digest import canonical_json

__all__ = [
    "HttpConnection",
    "HttpError",
    "MAX_BODY_BYTES",
    "MAX_HEAD_BYTES",
    "Request",
    "dumps_with_raw",
    "sse_event",
]

#: Cap on the request head (request line + headers + blank line).
MAX_HEAD_BYTES = 32 * 1024

#: Cap on request bodies (inline assays are a few hundred KB at most).
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Per-connection read buffer: a head at its cap fits with room to
#: spare; bodies longer than this get a buffer of their own.
BUFFER_BYTES = 64 * 1024

_REASONS = {
    200: "OK",
    202: "Accepted",
    204: "No Content",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class HttpError(Exception):
    """Protocol-level failure with an HTTP status to answer with."""

    def __init__(self, status: int, message: str) -> None:
        self.status = status
        super().__init__(message)


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: dict[str, str] = field(default_factory=dict)
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @property
    def wants_close(self) -> bool:
        """True when the client asked for one-shot ``Connection: close``."""
        return self.headers.get("connection", "").lower() == "close"

    def json(self) -> Any:
        """The request body parsed as JSON (400 on garbage or nesting
        too deep for the parser)."""
        if not self.body:
            raise HttpError(400, "request body required")
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as error:
            raise HttpError(400, f"request body is not JSON: {error}")
        except RecursionError:
            raise HttpError(400, "request body is nested too deeply") from None


def _parse_head(head: str) -> tuple[Request, int]:
    """The request a head (without its blank line) announces, and its
    body length."""
    lines = head.split("\r\n")
    parts = lines[0].split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise HttpError(400, f"malformed request line: {lines[0]!r}")
    method = parts[0].upper()
    try:
        split = urlsplit(parts[1])
    except ValueError:
        raise HttpError(400, f"malformed request target: {parts[1]!r}")
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise HttpError(400, f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()
    length = 0
    if "content-length" in headers:
        try:
            length = int(headers["content-length"])
        except ValueError:
            raise HttpError(400, "malformed Content-Length")
        if length < 0 or length > MAX_BODY_BYTES:
            raise HttpError(413, f"body too large ({length} bytes)")
    elif headers.get("transfer-encoding"):
        raise HttpError(400, "chunked request bodies are not supported")
    request = Request(
        method=method,
        path=unquote(split.path),
        query=dict(parse_qsl(split.query)),
        headers=headers,
    )
    return request, length


def _response_head(
    status: int,
    content_type: str,
    length: int | None,
    close: bool,
    extra_headers: dict[str, str] | None,
) -> bytes:
    """Status line and headers of one response, blank line included.

    ``length=None`` starts a connection-delimited stream (SSE), which
    must *close*.
    """
    head = f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
    head += f"Content-Type: {content_type}\r\n"
    if length is not None:
        head += f"Content-Length: {length}\r\n"
    head += "Connection: close\r\n" if close else "Connection: keep-alive\r\n"
    for name, value in (extra_headers or {}).items():
        head += f"{name}: {value}\r\n"
    return (head + "\r\n").encode("latin-1")


def dumps_with_raw(payload: Any, raw: dict[str, str] | None = None) -> str:
    """Canonical JSON of *payload*, splicing pre-serialised fields in raw.

    *raw* maps top-level field names to already-canonical JSON text;
    each is written verbatim in its key's place among the sorted keys
    instead of being parsed and re-serialised.  This is the cache-hit
    fast path **and** the byte-identity guarantee: the stored result
    text reaches the wire untouched, and the output equals the
    canonical JSON of the document with *raw* parsed in.
    """
    if not raw:
        return canonical_json(payload)
    fields = []
    for name in sorted(payload.keys() | raw.keys()):
        text = raw.get(name)
        if text is None:
            text = canonical_json(payload[name])
        fields.append(f"{canonical_json(name)}:{text}")
    return "{" + ",".join(fields) + "}"


def sse_event(
    data: Any, event: str | None = None, event_id: int | None = None
) -> bytes:
    """One Server-Sent-Events frame carrying *data* as JSON.

    *event_id* emits an ``id:`` line — the stream position a client
    resumes from (``?start=``) after a dropped connection.
    """
    lines = []
    if event_id is not None:
        lines.append(f"id: {event_id}")
    if event:
        lines.append(f"event: {event}")
    lines.append("data: " + canonical_json(data))
    return ("\n".join(lines) + "\n\n").encode("utf-8")


#: Answers one request: ``None`` when it has responded, or a coroutine
#: that responds once it has waited.
Handler = Callable[[Request, "HttpConnection"], Awaitable[None] | None]


class HttpConnection(asyncio.BufferedProtocol):
    """One client connection: incremental request parser and writer.

    *connections*, when given, holds every open connection (the server
    closes what is left when it stops).
    """

    def __init__(
        self, handler: Handler, connections: set | None = None
    ) -> None:
        self._handler = handler
        self._connections = connections
        self.transport: asyncio.Transport | None = None
        self._buffer = bytearray(BUFFER_BYTES)
        self._view = memoryview(self._buffer)
        #: Unparsed bytes are ``_buffer[_start:_end]``; the blank-line
        #: search resumes at ``_scan``.
        self._start = self._end = self._scan = 0
        #: Head parsed, body pending: the request and its body length.
        self._request: Request | None = None
        self._length = 0
        #: A body longer than the buffer, read into its own buffer.
        self._body: bytearray | None = None
        self._filled = 0
        #: The coroutine of a request that waits; nothing further is
        #: parsed until it finishes.
        self._task: asyncio.Task | None = None
        #: A response closed the connection: answer nothing more.
        self._closing = False
        self._eof = False
        self._lost = False
        self._reading_paused = False
        self._writing_paused = False
        self._drain_waiters: list[asyncio.Future] = []

    # -- asyncio protocol callbacks --------------------------------------
    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport  # type: ignore[assignment]
        if self._connections is not None:
            self._connections.add(self)

    def connection_lost(self, exc: Exception | None) -> None:
        self._lost = True
        if self._connections is not None:
            self._connections.discard(self)
        self._wake_drainers()

    def get_buffer(self, sizehint: int) -> memoryview:
        if self._closing:
            # Nothing more is parsed (an SSE stream runs until the
            # connection closes): what the client still sends lands at
            # the buffer's start and is dropped.
            return self._view
        if self._body is not None:
            return memoryview(self._body)[self._filled:]
        return self._view[self._end:]

    def buffer_updated(self, nbytes: int) -> None:
        if self._closing:
            return
        if self._body is not None:
            self._filled += nbytes
            if self._filled < self._length:
                return
        else:
            self._end += nbytes
        self._process()

    def eof_received(self) -> bool:
        self._eof = True
        self._process()
        # Keep the transport: a request still in flight answers first.
        return True

    def pause_writing(self) -> None:
        self._writing_paused = True

    def resume_writing(self) -> None:
        self._writing_paused = False
        self._wake_drainers()
        self._process()

    # -- writing ----------------------------------------------------------
    def write(self, data: bytes) -> None:
        """Hand *data* to the transport (the one place bytes leave)."""
        self.transport.write(data)

    def respond(
        self,
        status: int,
        body: bytes = b"",
        extra_headers: dict[str, str] | None = None,
        close: bool = True,
    ) -> None:
        """Write one complete JSON response in one ``write()``, so it
        leaves in one ``send()``.  *close* ends the connection after
        it."""
        head = _response_head(
            status, "application/json", len(body), close, extra_headers
        )
        self.write(head + body)
        if close:
            self._closing = True

    def respond_json(
        self,
        status: int,
        payload: Any,
        raw: dict[str, str] | None = None,
        extra_headers: dict[str, str] | None = None,
        close: bool = True,
    ) -> None:
        """Answer with *payload* as canonical JSON; *raw* fields (see
        :func:`dumps_with_raw`) are spliced in verbatim."""
        body = dumps_with_raw(payload, raw).encode("utf-8")
        self.respond(status, body, extra_headers=extra_headers, close=close)

    def start_stream(
        self,
        content_type: str,
        extra_headers: dict[str, str] | None = None,
    ) -> None:
        """Write the head of a connection-delimited stream (SSE): the
        connection closes once the handler's coroutine returns."""
        self.write(
            _response_head(200, content_type, None, True, extra_headers)
        )
        self._closing = True

    async def drain(self) -> None:
        """Wait while the transport's write buffer is over its high
        water mark; raises :class:`ConnectionResetError` once the
        connection is gone."""
        if self._writing_paused and not self._lost:
            waiter = asyncio.get_running_loop().create_future()
            self._drain_waiters.append(waiter)
            await waiter
        if self._lost:
            raise ConnectionResetError("connection lost")

    def _wake_drainers(self) -> None:
        waiters, self._drain_waiters = self._drain_waiters, []
        for waiter in waiters:
            if not waiter.done():
                waiter.set_result(None)

    def close(self) -> None:
        """Close the connection (buffered responses are flushed first)."""
        self._closing = True
        if self.transport is not None:
            self.transport.close()

    # -- request processing ------------------------------------------------
    def _process(self) -> None:
        """Answer every complete buffered request, in order, until one
        has to wait; then settle reading and closing."""
        while (
            self._task is None
            and not self._closing
            and not self._writing_paused
        ):
            try:
                request = self._next_request()
            except HttpError as error:
                self._fail(error)
                break
            if request is None:
                if self._eof:
                    self._end_of_input()
                break
            self._dispatch(request)
        if self._closing or self._lost:
            if self._task is None:
                self.close()
            return
        self._settle_reading()

    def _settle_reading(self) -> None:
        """Reset an empty buffer; pause reading while a full one waits
        behind a pending response, resume once it has room."""
        if self._start == self._end:
            self._start = self._end = self._scan = 0
        elif self._end == len(self._buffer) and self._start:
            self._compact()
        if self._body is None:
            full = self._end == len(self._buffer)
        else:
            full = self._filled == self._length
        if full and not self._reading_paused:
            self._reading_paused = True
            self.transport.pause_reading()
        elif not full and self._reading_paused:
            self._reading_paused = False
            self.transport.resume_reading()

    def _compact(self) -> None:
        start, end = self._start, self._end
        self._buffer[: end - start] = self._buffer[start:end]
        self._scan -= start
        self._start, self._end = 0, end - start

    def _next_request(self) -> Request | None:
        """The next complete request out of the buffer, or ``None``."""
        if self._request is None:
            start, end = self._start, self._end
            found = self._buffer.find(
                b"\r\n\r\n", max(start, self._scan), end
            )
            if found < 0:
                if end - start >= MAX_HEAD_BYTES:
                    raise HttpError(413, "request head too large")
                self._scan = max(start, end - 3)
                return None
            if found + 4 - start > MAX_HEAD_BYTES:
                raise HttpError(413, "request head too large")
            head = str(self._view[start:found], "latin-1")
            self._start = self._scan = found + 4
            self._request, self._length = _parse_head(head)
            if self._length > self._end - self._start:
                self._make_room()
        request, length = self._request, self._length
        if self._body is not None:
            if self._filled < length:
                return None
            request.body = bytes(self._body)
            self._body = None
        elif length:
            start = self._start
            if self._end - start < length:
                return None
            request.body = self._view[start: start + length].tobytes()
            self._start = self._scan = start + length
        self._request = None
        return request

    def _make_room(self) -> None:
        """Make space for a body that has not fully arrived."""
        if self._start + self._length <= len(self._buffer):
            return
        if self._length <= len(self._buffer):
            self._compact()
            return
        # Only body bytes are buffered (it has not fully arrived), so
        # they all move to the body's own buffer.
        self._body = bytearray(self._length)
        self._filled = self._end - self._start
        self._body[: self._filled] = self._buffer[self._start: self._end]
        self._start = self._end = self._scan = 0

    def _end_of_input(self) -> None:
        """The client closed its side with no complete request left."""
        if self._request is not None:
            self._fail(HttpError(400, "truncated request body"))
        elif self._buffer[self._start: self._end].strip():
            self._fail(HttpError(400, "truncated request head"))
        else:
            self._closing = True

    def _dispatch(self, request: Request) -> None:
        try:
            pending = self._handler(request, self)
        except HttpError as error:
            self._fail(error)
            return
        except Exception as error:  # pragma: no cover - defensive
            self._fail(HttpError(500, f"internal error: {error!r}"))
            return
        if pending is not None:
            self._task = asyncio.get_running_loop().create_task(
                self._finish(pending)
            )

    async def _finish(self, pending: Awaitable[None]) -> None:
        """Run one waiting request, then carry on with the buffer."""
        try:
            await pending
        except asyncio.CancelledError:
            # Server closing while this request waits: end quietly.
            self._closing = True
        except HttpError as error:
            self._fail(error)
        except ConnectionError:
            self._closing = True
        except Exception as error:
            self._fail(HttpError(500, f"internal error: {error!r}"))
        finally:
            self._task = None
        self._process()

    def _fail(self, error: HttpError) -> None:
        """Answer *error* and end the connection."""
        if self._closing or self._lost:
            self._closing = True
            return
        self.respond_json(error.status, {"error": str(error)}, close=True)
