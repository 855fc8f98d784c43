"""Process-pool task fan-out with deterministic result order.

:class:`PoolSession` is the single pool primitive the rest of the code
builds on: one worker pool that serves *multiple* submission waves, so
workers are forked once, not once per wave.  The synthesis service's
executor (:mod:`repro.serve.executor`) dispatches its jobs through one,
multi-start placement its restarts and the experiment runner its
benchmarks.  Each wave's contract:

* Results come back in **submission order**, never completion order —
  every caller's reduction is therefore independent of scheduling.
* ``jobs=1`` runs the tasks inline in the calling process: no fork, no
  pickling, exceptions propagate natively.  This is the reference
  behaviour the pooled path must reproduce.
* ``jobs>1`` dispatches to a :class:`~concurrent.futures.ProcessPoolExecutor`.
  A :class:`~repro.errors.ReproError` raised inside a worker crosses
  the pool boundary losslessly: the worker catches it, ships
  ``(type, message, traceback text)`` back as data, and the parent
  re-raises an exception of the *original type* with the *original
  message* (the formatted worker traceback is attached as
  ``worker_traceback``).  Plain exception pickling cannot guarantee
  this — subclasses with custom ``__init__`` signatures (e.g.
  :class:`~repro.errors.GraphCycleError`) round-trip incorrectly — and
  a bare ``BrokenProcessPool`` would break the CLI's exit-code-3
  contract for domain errors.
* Pool-infrastructure failures (a dead worker, a timeout) surface as
  :class:`~repro.errors.ParallelExecutionError`, which *is* a
  :class:`~repro.errors.ReproError`, so existing ``except ReproError``
  guards and the CLI exit code keep working.  A broken or timed-out
  session is poisoned: later waves fail fast instead of dispatching
  onto a dead pool, so no wave can silently orphan its tasks.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from traceback import format_exc
from typing import Any, Callable, Iterable, Sequence

from repro.errors import (
    ParallelExecutionError,
    ParallelTimeoutError,
    ReproError,
)

__all__ = ["PoolSession", "resolve_jobs"]


@dataclass(frozen=True)
class _WorkerFailure:
    """Picklable record of a :class:`ReproError` raised in a worker."""

    exc_module: str
    exc_qualname: str
    message: str
    traceback_text: str


def _guarded_call(fn: Callable[[Any], Any], payload: Any) -> Any:
    """Worker-side wrapper: turn domain errors into data, not pickles."""
    try:
        return fn(payload)
    except ReproError as error:
        cls = type(error)
        return _WorkerFailure(
            exc_module=cls.__module__,
            exc_qualname=cls.__qualname__,
            message=str(error),
            traceback_text=format_exc(),
        )


def _rebuild_exception(failure: _WorkerFailure) -> ReproError:
    """Reconstruct the original exception type and message in the parent.

    The class is re-imported and instantiated via ``__new__`` (bypassing
    any custom ``__init__`` signature) with ``args`` set to the original
    message, which is exactly what ``str(exc)`` renders.  Anything that
    goes wrong degrades to a :class:`ParallelExecutionError` carrying
    the same message — still a :class:`ReproError`.
    """
    try:
        module = __import__(failure.exc_module, fromlist=["_"])
        cls = module
        for part in failure.exc_qualname.split("."):
            cls = getattr(cls, part)
        if not (isinstance(cls, type) and issubclass(cls, ReproError)):
            raise TypeError(f"{failure.exc_qualname} is not a ReproError")
        exc = cls.__new__(cls)
        exc.args = (failure.message,)
    except Exception:
        exc = ParallelExecutionError(
            f"{failure.exc_qualname}: {failure.message}"
        )
    exc.worker_traceback = failure.traceback_text
    return exc


def resolve_jobs(jobs: int | None) -> int:
    """Normalise a job count: ``None``/``0`` means one per CPU."""
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ParallelExecutionError(f"jobs must be >= 1, got {jobs}")
    return jobs


class PoolSession:
    """A reusable worker pool serving multiple submission waves.

    Each :meth:`run` call is one *wave*: all payloads are dispatched,
    all results gathered in submission order, and only then does the
    wave return.  The worker processes persist between waves, so a
    long-running caller such as the service executor forks its pool
    once.

    ``jobs=1`` runs every wave inline (no processes, native
    exceptions): the reference semantics.

    Failure semantics:

    * a :class:`ReproError` in a worker aborts the wave and re-raises
      in the parent with its original type (the data transport
      above); the session stays usable — the error was the task's,
      not the pool's;
    * a broken pool raises :class:`ParallelExecutionError` and an
      exceeded wave deadline raises :class:`ParallelTimeoutError` (a
      subclass); both *poison the session*: every later :meth:`run`
      fails fast with the stored reason, so a caller iterating waves
      can never dispatch work onto a dead pool or strand a wave's
      tasks half-submitted.  Poisoning is *recoverable*: a long-lived
      caller (the synthesis server) calls :meth:`reset` to discard the
      dead pool and re-fork workers on the next wave — queued work
      held by the caller is never lost to a single dead worker.

    The session is safe to use from multiple threads: waves may be
    submitted concurrently (the synthesis server runs one wave per
    in-flight job), and pool creation / poisoning / reset are
    serialised internally.  Note that one wave's deadline poisoning
    terminates the shared workers, so sibling waves fail with
    :class:`ParallelExecutionError` and should be retried after a
    :meth:`reset`.

    *initializer* runs with *initargs* once in every worker process,
    including the workers of a pool re-forked after :meth:`reset`; the
    service and multi-start placement use it to hand workers the
    heartbeat pipe they inherit from the parent
    (:func:`repro.obs.live.install_beats`).  The inline ``jobs=1`` path
    never calls it.
    """

    def __init__(
        self,
        jobs: int = 1,
        initializer: Callable[..., None] | None = None,
        initargs: tuple[Any, ...] = (),
    ) -> None:
        self.jobs = resolve_jobs(jobs)
        self._initializer = initializer
        self._initargs = initargs
        self._pool: ProcessPoolExecutor | None = None
        self._broken: str | None = None
        self._lock = threading.Lock()
        #: Pools generations created over this session's lifetime
        #: (1 fork + 1 per reset-after-poison); telemetry only.
        self.generations = 0

    # -- lifecycle ------------------------------------------------------
    def __enter__(self) -> "PoolSession":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    def reset(self) -> None:
        """Recover a poisoned session: drop the dead pool, clear the poison.

        The next :meth:`run` forks a fresh worker pool.  Nothing the
        caller holds (queued payloads, earlier results) is touched —
        this only discards the broken process-pool infrastructure, so a
        server can retry the interrupted wave instead of wedging.  Safe
        (and a no-op beyond a pool recycle) on a healthy session.
        """
        with self._lock:
            pool, self._pool = self._pool, None
            self._broken = None
        if pool is not None:
            # The pool may hold wedged or dead workers; never block on it.
            pool.shutdown(wait=False, cancel_futures=True)

    @property
    def broken(self) -> str | None:
        """The stored poisoning reason, or ``None`` while healthy."""
        return self._broken

    # -- dispatch -------------------------------------------------------
    def run(
        self,
        fn: Callable[[Any], Any],
        payloads: Iterable[Any],
        timeout: float | None = None,
    ) -> list[Any]:
        """Run one wave: ``[fn(p) for p in payloads]`` in submission order.

        *timeout* is a per-wave deadline in seconds; exceeding it
        poisons the session (see the class docstring).
        """
        items: Sequence[Any] = list(payloads)
        if self.jobs == 1:
            return [fn(item) for item in items]
        if not items:
            return []
        with self._lock:
            if self._broken is not None:
                raise ParallelExecutionError(
                    f"pool session unusable after earlier failure: "
                    f"{self._broken}"
                )
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.jobs,
                    initializer=self._initializer,
                    initargs=self._initargs,
                )
                self.generations += 1
            pool = self._pool
        results: list[Any] = []
        deadline = None if timeout is None else time.monotonic() + timeout
        try:
            futures = [
                pool.submit(_guarded_call, fn, item) for item in items
            ]
            for future in futures:
                remaining: float | None = None
                if deadline is not None:
                    remaining = max(0.0, deadline - time.monotonic())
                try:
                    results.append(future.result(timeout=remaining))
                except FutureTimeoutError:
                    for pending in futures:
                        pending.cancel()
                    self._poison(f"wave timed out after {timeout:.1f}s")
                    raise ParallelTimeoutError(
                        f"worker pool timed out after {timeout:.1f}s "
                        f"({len(results)}/{len(items)} tasks finished)"
                    ) from None
        except BrokenExecutor as error:
            reason = f"worker pool broke: {error or type(error).__name__}"
            self._poison(reason)
            raise ParallelExecutionError(reason) from error
        for result in results:
            if isinstance(result, _WorkerFailure):
                raise _rebuild_exception(result) from None
        return results

    def _poison(self, reason: str) -> None:
        """Record a fatal pool failure and release the workers.

        ``wait=False`` because the pool is already known-broken or
        wedged — blocking on it would hang the parent on exactly the
        failure the deadline was meant to bound.
        """
        with self._lock:
            self._broken = reason
            pool, self._pool = self._pool, None
        if pool is not None:
            # A wedged worker would otherwise be joined at interpreter
            # exit, turning a bounded deadline into an unbounded hang.
            # ``_processes`` is executor-internal but stable across
            # supported CPythons; failing to reach it only loses the
            # hard kill, never correctness.
            try:
                for process in list((pool._processes or {}).values()):
                    process.terminate()
            except Exception:
                pass
            pool.shutdown(wait=False, cancel_futures=True)
