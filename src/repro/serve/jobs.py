"""Bounded persistent job queue: a JSONL journal replayed on restart.

Accepted jobs must survive a server crash — acceptance is a promise.
The queue therefore journals every state transition as one JSON line
(``job`` / ``start`` / ``done`` / ``fail``) appended with fsync, the
same crash-parseable-prefix discipline as the run ledger and the
hardened :class:`~repro.obs.sinks.JsonlSink`: a process killed
mid-append leaves at most one damaged *final* line, which replay
skips.

**Group commit.**  ``submit(..., sync=False)`` writes and flushes its
``job`` line but defers the fsync; :meth:`JobQueue.sync` then makes
every deferred line durable with one fsync.  ``POST /jobs/batch``
submits all its items that way and syncs once before its response
(the acknowledgement) is written — one fsync per batch request
instead of one per item.  Every other append (single submits,
``start`` / ``done`` / ``fail``) fsyncs itself, and any fsync also
covers the deferred lines written before it.

Replay rules (:meth:`JobQueue.replay`):

* a ``job`` line (re)creates the job as *queued*; duplicate ids are
  idempotent — the first submission wins, later ones are ignored;
* a ``start`` line bumps the attempt counter but the job stays
  *queued* unless a terminal line follows: a job that was running when
  the server died was lost mid-flight and must run again;
* ``done`` / ``fail`` are terminal (``done`` jobs re-serve from the
  result cache; they are kept for status queries, not re-executed).

The bound (*limit*) applies to **pending** jobs only — that is the
backpressure surface: a full queue makes ``POST /jobs`` answer 429
with ``Retry-After`` instead of accepting work it cannot promise.

**Compaction** (:meth:`JobQueue.compact`) keeps a long-lived server's
journals from growing without bound.  The live state is snapshotted —
one ``job`` line per retained job, a ``start`` line where attempts
were made, a terminal line where one was reached — into a sibling
temp file (fsynced), then atomically :func:`os.replace`\\ d over the
journal.  A crash *before* or *during* the snapshot leaves the old
journal untouched (replay ignores the temp file); a crash *after*
replays the compacted one: the same crash-parseable-prefix discipline
as appends.  Terminal jobs beyond the newest ``keep_terminal`` are
evicted (their results live in the result cache; their ids stop
answering ``GET /jobs/{id}``).  With ``journal_limit`` set, appends
trigger compaction automatically; after a compaction that cannot
shrink below the limit (everything is live), the trigger threshold
doubles so a full-of-pending queue never thrashes.

All methods are thread-safe: the asyncio loop submits, executor
threads finish, the journal serialises under one lock.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable

from repro.errors import ReproError
from repro.obs.sinks import read_jsonl

__all__ = [
    "DEFAULT_QUEUE_LIMIT",
    "Job",
    "JobQueue",
    "QueueFullError",
    "read_journal",
]

#: Default cap on pending (accepted but not yet running) jobs.
DEFAULT_QUEUE_LIMIT = 64

#: Job lifecycle states.
QUEUED, RUNNING, DONE, FAILED = "queued", "running", "done", "failed"


class QueueFullError(ReproError):
    """Raised when the pending-job bound is hit (HTTP 429)."""


@dataclass
class Job:
    """One accepted submission and its lifecycle state."""

    job_id: str
    document: dict[str, Any]
    digest: str
    cache_key: str
    status: str = QUEUED
    attempts: int = 0
    error: str | None = None
    #: True when the job was answered from the result cache without a
    #: synthesis execution (only for journal-replayed duplicates).
    cached: bool = False
    created: float = 0.0
    started: float | None = None
    finished: float | None = None

    def as_status(self) -> dict[str, Any]:
        """The JSON status document of ``GET /jobs/{id}``."""
        return {
            "job_id": self.job_id,
            "status": self.status,
            "benchmark": self.document.get(
                "benchmark",
                (self.document.get("assay") or {}).get("name", "assay"),
            ),
            "digest": self.digest,
            "attempts": self.attempts,
            "cached": self.cached,
            "error": self.error,
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
        }


def read_journal(path: str | Path) -> list[dict[str, Any]]:
    """All parseable journal records, oldest first.

    Damaged lines (a crash mid-append) are skipped, never fatal — the
    journal must stay replayable after any crash.
    """
    journal = Path(path)
    if not journal.exists():
        return []
    return [record for record in read_jsonl(journal) if "kind" in record]


class JobQueue:
    """The bounded, journal-backed job queue of one server instance."""

    def __init__(
        self,
        journal_path: str | Path,
        limit: int = DEFAULT_QUEUE_LIMIT,
        clock: Callable[[], float] = time.time,
        journal_limit: int | None = None,
        keep_terminal: int | None = None,
        on_compaction: Callable[[list[str]], None] | None = None,
    ) -> None:
        if limit < 1:
            raise ReproError(f"queue limit must be >= 1, got {limit}")
        if journal_limit is not None and journal_limit < 8:
            raise ReproError(
                f"journal limit must be >= 8, got {journal_limit}"
            )
        self.journal_path = Path(journal_path)
        self.limit = limit
        self._clock = clock
        self._lock = threading.Lock()
        self._jobs: dict[str, Job] = {}
        self._pending: deque[str] = deque()
        self._seq = 0
        #: Jobs requeued by journal replay (lost mid-flight in a crash).
        self.recovered = 0
        #: Compaction policy: trigger line count (``None`` = manual
        #: only) and how many newest terminal jobs survive a snapshot.
        self.journal_limit = journal_limit
        self.keep_terminal = (
            keep_terminal
            if keep_terminal is not None
            else (journal_limit // 4 if journal_limit else None)
        )
        #: Called after each compaction with the evicted job ids (the
        #: server prunes its event logs and bumps its counter here).
        self.on_compaction = on_compaction
        #: Journal lines written so far (parseable records after
        #: replay; every append increments it).
        self.journal_lines = 0
        #: Compactions performed over this instance's lifetime.
        self.compactions = 0
        self._compact_threshold = journal_limit
        #: Persistent append handle — reopening the journal per record
        #: costs more CPU than the record itself on the accept path.
        #: Invalidated by compaction (``os.replace`` swaps the inode).
        self._journal_stream: Any = None
        #: True while flushed journal lines await their fsync (group
        #: commit; see :meth:`sync`).
        self._unsynced = False
        self.replay()

    # -- journal --------------------------------------------------------
    def _close_journal_stream(self) -> None:
        if self._journal_stream is not None:
            try:
                self._journal_stream.close()
            except OSError:  # pragma: no cover - best effort
                pass
            self._journal_stream = None

    def _append(self, record: dict[str, Any], sync: bool = True) -> None:
        line = json.dumps(record, sort_keys=True, default=repr)
        stream = self._journal_stream
        if stream is None:
            self.journal_path.parent.mkdir(parents=True, exist_ok=True)
            stream = open(self.journal_path, "a", encoding="utf-8")
            self._journal_stream = stream
        stream.write(line + "\n")
        stream.flush()
        if sync:
            os.fsync(stream.fileno())
        self._unsynced = not sync
        self.journal_lines += 1
        if (
            self._compact_threshold is not None
            and self.journal_lines >= self._compact_threshold
        ):
            self._compact_locked()

    def sync(self) -> None:
        """Fsync journal lines appended with ``sync=False`` (group
        commit); a no-op when nothing is pending."""
        with self._lock:
            if self._unsynced and self._journal_stream is not None:
                os.fsync(self._journal_stream.fileno())
            self._unsynced = False

    def close(self) -> None:
        """Release the persistent journal append handle (idempotent)."""
        self.sync()
        with self._lock:
            self._close_journal_stream()

    def replay(self) -> None:
        """Rebuild in-memory state from the journal (idempotent)."""
        with self._lock:
            self._close_journal_stream()
            self._jobs.clear()
            self._pending.clear()
            started: set[str] = set()
            meta_seq = 0
            records = read_journal(self.journal_path)
            self.journal_lines = len(records)
            for record in records:
                kind = record.get("kind")
                job_id = str(record.get("id", ""))
                if kind == "meta":
                    meta_seq = max(meta_seq, int(record.get("seq", 0)))
                    continue
                if kind == "job":
                    if job_id in self._jobs:
                        continue  # duplicate submission: idempotent
                    document = record.get("document")
                    if not isinstance(document, dict):
                        continue
                    self._jobs[job_id] = Job(
                        job_id=job_id,
                        document=document,
                        digest=str(record.get("digest", "")),
                        cache_key=str(record.get("cache_key", "")),
                        created=float(record.get("ts", 0.0)),
                    )
                    self._pending.append(job_id)
                    continue
                job = self._jobs.get(job_id)
                if job is None:
                    continue
                if kind == "start":
                    job.attempts = max(
                        job.attempts, int(record.get("attempt", 1))
                    )
                    started.add(job_id)
                elif kind == "done":
                    job.status = DONE
                    job.cached = bool(record.get("cached", False))
                    job.finished = float(record.get("ts", 0.0))
                    if job_id in self._pending:
                        self._pending.remove(job_id)
                elif kind == "fail":
                    job.status = FAILED
                    job.error = str(record.get("error", "unknown"))
                    job.finished = float(record.get("ts", 0.0))
                    if job_id in self._pending:
                        self._pending.remove(job_id)
            # Jobs with a start but no terminal record were in flight
            # when the process died: they stay queued and run again.
            self.recovered = sum(
                1 for job_id in self._pending if job_id in started
            )
            # meta records (written by compaction) carry the id
            # sequence forward so evicted ids are never reissued.
            self._seq = max(len(self._jobs), meta_seq)
            if (
                self._compact_threshold is not None
                and self.journal_lines >= self._compact_threshold
            ):
                self._compact_locked()

    # -- compaction -----------------------------------------------------
    def _snapshot_records(self) -> tuple[list[dict[str, Any]], list[str]]:
        """The compacted journal's records, plus the evicted job ids.

        Non-terminal jobs are always retained (queued order preserved:
        records are written in original insertion order, and replay
        rebuilds the pending deque from it).  Terminal jobs beyond the
        newest ``keep_terminal`` are evicted.
        """
        terminal = [
            job_id
            for job_id, job in self._jobs.items()
            if job.status in (DONE, FAILED)
        ]
        evict: set[str] = set()
        if self.keep_terminal is not None and len(terminal) > self.keep_terminal:
            cutoff = len(terminal) - self.keep_terminal
            evict = set(terminal[:cutoff])
        records: list[dict[str, Any]] = [
            {"kind": "meta", "seq": self._seq, "ts": self._clock()}
        ]
        for job_id, job in self._jobs.items():
            if job_id in evict:
                continue
            records.append(
                {
                    "kind": "job",
                    "id": job_id,
                    "document": job.document,
                    "digest": job.digest,
                    "cache_key": job.cache_key,
                    "ts": job.created,
                }
            )
            if job.attempts > 0:
                records.append(
                    {
                        "kind": "start",
                        "id": job_id,
                        "attempt": job.attempts,
                        "ts": job.started or job.created,
                    }
                )
            if job.status == DONE:
                records.append(
                    {
                        "kind": "done",
                        "id": job_id,
                        "cached": job.cached,
                        "ts": job.finished or job.created,
                    }
                )
            elif job.status == FAILED:
                records.append(
                    {
                        "kind": "fail",
                        "id": job_id,
                        "error": job.error or "unknown",
                        "ts": job.finished or job.created,
                    }
                )
        return records, sorted(evict)

    def _compact_locked(self) -> list[str]:
        """Snapshot + truncate (caller holds the lock)."""
        records, evicted = self._snapshot_records()
        self.journal_path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.journal_path.with_name(
            self.journal_path.name + ".compact"
        )
        with open(tmp, "w", encoding="utf-8") as stream:
            for record in records:
                stream.write(
                    json.dumps(record, sort_keys=True, default=repr) + "\n"
                )
            stream.flush()
            os.fsync(stream.fileno())
        os.replace(tmp, self.journal_path)
        # The old append handle now points at the replaced (unlinked)
        # inode; drop it so the next append reopens the new journal.
        # Deferred lines need no fsync: the snapshot holds them.
        self._close_journal_stream()
        self._unsynced = False
        for job_id in evicted:
            job = self._jobs.pop(job_id, None)
            if job is not None and job_id in self._pending:
                self._pending.remove(job_id)  # pragma: no cover - paranoia
        self.journal_lines = len(records)
        self.compactions += 1
        if self.journal_limit is not None:
            # Back off while the journal is mostly live state: a queue
            # full of pending jobs cannot shrink, and recompacting on
            # every append would turn each accept into a full rewrite.
            self._compact_threshold = max(
                self.journal_limit, self.journal_lines * 2
            )
        if self.on_compaction is not None:
            self.on_compaction(evicted)
        return evicted

    def compact(self) -> list[str]:
        """Snapshot live state and truncate the journal; returns the
        evicted (old terminal) job ids."""
        with self._lock:
            return self._compact_locked()

    # -- submission -----------------------------------------------------
    def submit(
        self,
        document: dict[str, Any],
        digest: str,
        cache_key: str,
        job_id: str | None = None,
        sync: bool = True,
    ) -> tuple[Job, bool]:
        """Accept one submission; returns ``(job, created)``.

        A known *job_id* returns the existing job unchanged (idempotent
        resubmission); a full queue raises :class:`QueueFullError`.
        With ``sync=False`` the ``job`` line is written but not yet
        durable: the caller must call :meth:`sync` before it
        acknowledges the job.
        """
        with self._lock:
            if job_id is not None and job_id in self._jobs:
                return self._jobs[job_id], False
            if len(self._pending) >= self.limit:
                raise QueueFullError(
                    f"job queue full ({self.limit} pending); retry later"
                )
            if job_id is None:
                self._seq += 1
                job_id = f"j{self._seq:06d}-{digest[:8]}"
                while job_id in self._jobs:  # pragma: no cover - paranoia
                    self._seq += 1
                    job_id = f"j{self._seq:06d}-{digest[:8]}"
            job = Job(
                job_id=job_id,
                document=dict(document),
                digest=digest,
                cache_key=cache_key,
                created=self._clock(),
            )
            self._jobs[job_id] = job
            self._pending.append(job_id)
            self._append(
                {
                    "kind": "job",
                    "id": job_id,
                    "document": job.document,
                    "digest": digest,
                    "cache_key": cache_key,
                    "ts": job.created,
                },
                sync=sync,
            )
            return job, True

    # -- lifecycle ------------------------------------------------------
    def claim(self) -> Job | None:
        """Pop the oldest pending job and mark it running (or ``None``)."""
        with self._lock:
            if not self._pending:
                return None
            job = self._jobs[self._pending.popleft()]
            job.status = RUNNING
            job.attempts += 1
            job.started = self._clock()
            self._append(
                {
                    "kind": "start",
                    "id": job.job_id,
                    "attempt": job.attempts,
                    "ts": job.started,
                }
            )
            return job

    def finish(self, job_id: str, cached: bool = False) -> Job:
        """Mark a running job done (its result is in the cache)."""
        with self._lock:
            job = self._jobs[job_id]
            job.status = DONE
            job.cached = cached
            job.finished = self._clock()
            self._append(
                {
                    "kind": "done",
                    "id": job_id,
                    "cached": cached,
                    "ts": job.finished,
                }
            )
            return job

    def fail(self, job_id: str, error: str) -> Job:
        """Mark a running job failed with *error*."""
        with self._lock:
            job = self._jobs[job_id]
            job.status = FAILED
            job.error = error
            job.finished = self._clock()
            self._append(
                {
                    "kind": "fail",
                    "id": job_id,
                    "error": error,
                    "ts": job.finished,
                }
            )
            return job

    # -- introspection --------------------------------------------------
    def get(self, job_id: str) -> Job | None:
        with self._lock:
            return self._jobs.get(job_id)

    @property
    def depth(self) -> int:
        """Pending (accepted, not yet running) job count."""
        with self._lock:
            return len(self._pending)

    def jobs(self) -> Iterable[Job]:
        """Snapshot of every known job (insertion order)."""
        with self._lock:
            return list(self._jobs.values())

    def counts(self) -> dict[str, int]:
        """Job tally by status (for ``GET /stats``)."""
        with self._lock:
            tally: dict[str, int] = {
                QUEUED: 0, RUNNING: 0, DONE: 0, FAILED: 0,
            }
            for job in self._jobs.values():
                tally[job.status] = tally.get(job.status, 0) + 1
            return tally
