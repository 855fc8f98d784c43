"""Blocking client + ``python -m repro submit`` command.

:class:`ServeClient` is the library-side counterpart of
:class:`~repro.serve.server.SynthesisServer`: plain stdlib
``http.client`` with keep-alive — the server answers JSON exchanges
with ``Connection: keep-alive``, so the client holds one TCP
connection across calls (per-request connection setup was a measured
tax in the load generator), retrying once on a fresh connection when a kept-alive one
went stale.  JSON in/out, plus a tiny SSE parser for the progress
stream; :meth:`ServeClient.follow_events` resumes a dropped stream
from the last seen event index (``?start=``) without losing the
terminal frame.

``run_submit`` is the command-line face::

    python -m repro submit PCR --seed 3                # wait for result
    python -m repro submit PCR --seed 3 --no-wait      # fire-and-poll
    python -m repro submit my_assay.json -m 2 -H 1 -d 1
    python -m repro submit PCR --follow                # SSE progress
    python -m repro submit --stats                     # server stats
    python -m repro submit --shutdown                  # graceful drain

It prints the result summary like the synthesis CLI does (or the whole
response with ``--json``) and exits 0 on success, 1 on a failed job,
2 on usage/validation errors, 3 when the server is unreachable.
"""

from __future__ import annotations

import json
import time
from http.client import HTTPConnection, HTTPException
from pathlib import Path
from typing import Any, Iterator
from urllib.parse import urlsplit

from repro.errors import ReproError

__all__ = ["ServeClient", "ServeUnavailableError", "run_submit"]

DEFAULT_URL = "http://127.0.0.1:8077"


class ServeUnavailableError(ReproError):
    """The synthesis server could not be reached at all."""


class ServeClient:
    """Minimal blocking client for the synthesis service."""

    def __init__(self, url: str = DEFAULT_URL, timeout: float = 600.0) -> None:
        split = urlsplit(url if "//" in url else f"http://{url}")
        if split.scheme not in ("", "http"):
            raise ReproError(
                f"unsupported scheme {split.scheme!r} (http only)"
            )
        self.host = split.hostname or "127.0.0.1"
        self.port = split.port or 80
        self.timeout = timeout
        self._connection: HTTPConnection | None = None

    def close(self) -> None:
        """Drop the kept-alive connection (reconnects on next call)."""
        if self._connection is not None:
            self._connection.close()
            self._connection = None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- transport ------------------------------------------------------
    def _request(
        self, method: str, path: str, body: Any = None
    ) -> tuple[int, dict[str, str], Any]:
        payload = (
            None
            if body is None
            else json.dumps(
                body, sort_keys=True, separators=(",", ":")
            ).encode("utf-8")
        )
        headers = {"Content-Type": "application/json"} if payload else {}
        for attempt in (0, 1):
            reused = self._connection is not None
            connection = self._connection or HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
            self._connection = None
            try:
                connection.request(method, path, body=payload,
                                   headers=headers)
                response = connection.getresponse()
                raw = response.read()
            except (OSError, HTTPException) as error:
                connection.close()
                if reused and attempt == 0:
                    continue  # stale keep-alive connection: one retry
                raise ServeUnavailableError(
                    f"cannot reach synthesis server at "
                    f"http://{self.host}:{self.port}: {error}"
                ) from error
            headers_out = {
                name.lower(): value for name, value in response.getheaders()
            }
            if response.will_close:
                connection.close()
            else:
                self._connection = connection  # keep-alive: reuse next call
            try:
                data = json.loads(raw) if raw else None
            except ValueError:
                data = {"error": raw.decode("utf-8", "replace")}
            return response.status, headers_out, data
        raise AssertionError("unreachable")  # pragma: no cover

    # -- API ------------------------------------------------------------
    def healthz(self) -> dict[str, Any]:
        return self._request("GET", "/healthz")[2]

    def stats(self) -> dict[str, Any]:
        return self._request("GET", "/stats")[2]

    def submit(
        self, submission: dict[str, Any], wait: float | None = None
    ) -> tuple[int, dict[str, str], dict[str, Any]]:
        """POST one submission; returns ``(status, headers, body)``.

        429 (queue full) is returned, not raised — the caller decides
        whether to honour ``Retry-After`` or give up.
        """
        path = "/jobs" if wait is None else f"/jobs?wait={wait:g}"
        return self._request("POST", path, submission)

    def submit_batch(
        self, submissions: list[dict[str, Any]]
    ) -> dict[str, Any]:
        status, _, body = self._request(
            "POST", "/jobs/batch", {"jobs": submissions}
        )
        if status != 200:
            raise ReproError(
                f"batch submission failed ({status}): "
                f"{(body or {}).get('error', 'unknown')}"
            )
        return body

    def job(self, job_id: str, wait: float | None = None) -> dict[str, Any]:
        path = f"/jobs/{job_id}"
        if wait is not None:
            path += f"?wait={wait:g}"
        status, _, body = self._request("GET", path)
        if status == 404:
            raise ReproError(f"unknown job {job_id!r}")
        return body

    def wait_for(
        self,
        job_id: str,
        timeout: float = 3600.0,
        poll: float = 30.0,
    ) -> dict[str, Any]:
        """Long-poll *job_id* until it reaches a terminal state."""
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ReproError(
                    f"job {job_id} still {self.job(job_id)['status']} "
                    f"after {timeout:.0f}s"
                )
            status = self.job(job_id, wait=min(poll, max(0.1, remaining)))
            if status.get("status") in ("done", "failed"):
                return status

    def events(
        self, job_id: str, start: int = 0
    ) -> Iterator[dict[str, Any]]:
        """Yield SSE progress events for *job_id* until it finishes.

        *start* resumes the stream from that event index (each frame
        carries its index in the ``i`` field).  One shot: a broken
        connection raises; :meth:`follow_events` adds reconnection.
        """
        connection = HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        path = f"/jobs/{job_id}/events"
        if start:
            path += f"?start={start}"
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            if response.status != 200:
                raise ReproError(
                    f"events stream failed ({response.status}) "
                    f"for job {job_id!r}"
                )
            for frame in _read_sse(response):
                yield frame
        except (OSError, HTTPException) as error:
            raise ServeUnavailableError(
                f"events stream broke for job {job_id!r}: {error}"
            ) from error
        finally:
            connection.close()

    def follow_events(
        self,
        job_id: str,
        start: int = 0,
        max_reconnects: int = 5,
    ) -> Iterator[dict[str, Any]]:
        """Like :meth:`events`, but survive dropped connections.

        Tracks the last seen event index and reconnects with
        ``?start=<index + 1>``, so no event — in particular the
        terminal ``done``/``failed`` frame — is lost or repeated.
        Gives up (re-raising) after *max_reconnects* consecutive
        failures.
        """
        position = start
        failures = 0
        while True:
            try:
                for event in self.events(job_id, start=position):
                    index = event.get("i")
                    if isinstance(index, int):
                        position = index + 1
                    failures = 0
                    yield event
                    if event.get("event") == "end":
                        return
                return  # stream ended cleanly without an end frame
            except ServeUnavailableError:
                failures += 1
                if failures > max_reconnects:
                    raise
                time.sleep(min(0.2 * failures, 2.0))

    def shutdown(self) -> dict[str, Any]:
        return self._request("POST", "/admin/shutdown", {})[2]


def _read_sse(response: Any) -> Iterator[dict[str, Any]]:
    """Parse ``data:`` lines off a live SSE response body."""
    for raw in response:
        line = raw.decode("utf-8", "replace").rstrip("\r\n")
        if not line.startswith("data: "):
            continue
        try:
            data = json.loads(line[len("data: "):])
        except ValueError:
            continue
        if isinstance(data, dict):
            yield data
            if data.get("event") == "end":
                return


# ----------------------------------------------------------------------
# The ``python -m repro submit`` command
# ----------------------------------------------------------------------
def _build_submission(args: Any) -> dict[str, Any]:
    parameters: dict[str, Any] = {"seed": args.seed}
    if args.restarts is not None:
        parameters["restarts"] = args.restarts
    if args.check is not None:
        parameters["check"] = args.check
    if args.tc is not None:
        parameters["transport_time"] = args.tc
    submission: dict[str, Any] = {
        "parameters": parameters,
        "algorithm": args.algorithm,
    }
    if args.job_id:
        submission["job_id"] = args.job_id
    target = args.target
    if target is None:
        raise ReproError(
            "a benchmark name or assay JSON path is required "
            "(or use --stats / --shutdown)"
        )
    path = Path(target)
    if path.suffix == ".json" or path.exists():
        document = json.loads(path.read_text(encoding="utf-8"))
        submission["assay"] = document
        submission["allocation"] = {
            "mixers": args.mixers,
            "heaters": args.heaters,
            "filters": args.filters,
            "detectors": args.detectors,
        }
    else:
        submission["benchmark"] = target
    return submission


def _print_result(body: dict[str, Any]) -> int:
    import sys

    status = body.get("status")
    if status == "failed":
        print(f"job {body.get('job_id')} failed: {body.get('error')}",
              file=sys.stderr)
        return 1
    result = body.get("result")
    if not result:
        print(f"job {body.get('job_id')}: {status}")
        return 0
    cached = " (cached)" if body.get("cached") else ""
    metrics = result.get("metrics") or {}
    facts = ", ".join(
        f"{name}={metrics[name]:g}"
        for name in (
            "execution_time_s",
            "total_channel_length_mm",
            "cpu_time_s",
        )
        if name in metrics
    )
    print(f"{result.get('benchmark')}{cached}: {facts}")
    return 0


def _submit_parser():
    """The ``python -m repro submit`` argument parser."""
    import argparse

    from repro.check.report import CHECK_MODES

    parser = argparse.ArgumentParser(
        prog="repro submit",
        description=(
            "Submit synthesis jobs to a running `python -m repro serve` "
            "instance (docs/SERVICE.md)."
        ),
    )
    parser.add_argument("target", nargs="?", default=None,
                        help="benchmark name (e.g. PCR) or assay JSON path")
    parser.add_argument("--url", default=DEFAULT_URL,
                        help=f"server base URL (default: {DEFAULT_URL})")
    parser.add_argument("-m", "--mixers", type=int, default=0)
    parser.add_argument("-H", "--heaters", type=int, default=0)
    parser.add_argument("-f", "--filters", type=int, default=0)
    parser.add_argument("-d", "--detectors", type=int, default=0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--restarts", type=int, default=None)
    parser.add_argument("--check", default=None, choices=CHECK_MODES)
    parser.add_argument("--tc", type=float, default=None,
                        help="transport time constant")
    parser.add_argument("--algorithm", default="ours",
                        choices=["ours", "baseline"])
    parser.add_argument("--job-id", default=None,
                        help="client-chosen idempotency key")
    parser.add_argument("--no-wait", action="store_true",
                        help="return the job id immediately instead of "
                             "waiting for the result")
    parser.add_argument("--timeout", type=float, default=3600.0,
                        help="seconds to wait for the result "
                             "(default: 3600)")
    parser.add_argument("--follow", action="store_true",
                        help="stream SSE progress events while waiting")
    parser.add_argument("--json", action="store_true",
                        help="print the raw JSON response")
    parser.add_argument("--stats", action="store_true",
                        help="print GET /stats and exit")
    parser.add_argument("--shutdown", action="store_true",
                        help="ask the server to drain and stop")
    return parser


def run_submit(argv: list[str] | None = None) -> int:
    """Implementation of ``python -m repro submit`` (returns exit code)."""
    import sys

    args = _submit_parser().parse_args(argv)

    client = ServeClient(args.url)
    try:
        if args.stats:
            print(json.dumps(client.stats(), indent=2, sort_keys=True))
            return 0
        if args.shutdown:
            print(json.dumps(client.shutdown(), sort_keys=True))
            return 0
        submission = _build_submission(args)
        wait = None if (args.no_wait or args.follow) else args.timeout
        status, headers, body = client.submit(submission, wait=wait)
        if status == 429:
            retry = headers.get("retry-after", "?")
            print(
                f"server busy (429): queue full, retry after {retry}s",
                file=sys.stderr,
            )
            return 1
        if status not in (200, 202):
            print(f"error ({status}): {(body or {}).get('error')}",
                  file=sys.stderr)
            return 2
        if args.follow and body.get("status") not in ("done", "failed"):
            for event in client.follow_events(body["job_id"]):
                print(json.dumps(event, sort_keys=True), file=sys.stderr)
                if event.get("event") in ("done", "failed", "end"):
                    break
            body = client.job(body["job_id"])
        elif args.no_wait:
            print(json.dumps(body, sort_keys=True))
            return 0
        elif body.get("status") not in ("done", "failed"):
            body = client.wait_for(body["job_id"], timeout=args.timeout)
        if args.json:
            print(json.dumps(body, indent=2, sort_keys=True))
            return 1 if body.get("status") == "failed" else 0
        return _print_result(body)
    except ServeUnavailableError as error:
        print(f"error: {error}", file=sys.stderr)
        return 3
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        client.close()
