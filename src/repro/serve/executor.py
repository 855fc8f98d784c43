"""Job execution over the process pool: deadlines, death, retries.

One job = one synthesis run in a :class:`~repro.parallel.pool.PoolSession`
worker.  The executor owns the long-lived session and gives the server
the semantics a service needs on top of the pool's wave contract:

* **Per-job deadlines** — a wave timeout raises
  :class:`~repro.errors.ParallelTimeoutError`; the job *fails* (it blew
  its own budget — no retry) and the session is :meth:`reset
  <repro.parallel.pool.PoolSession.reset>` so the poisoned pool never
  wedges the server.
* **Worker death is survivable** — any other
  :class:`~repro.errors.ParallelExecutionError` (a worker killed by the
  OOM killer, a deadline kill on a *sibling* wave recycling the shared
  workers) resets the session and retries the job, up to ``retries``
  times.  Queued jobs are untouched; only the interrupted execution
  repeats — which is safe, because synthesis is deterministic.
* **Domain errors stay domain errors** — a
  :class:`~repro.errors.ReproError` raised *inside* the worker (bad
  submission values, strict-check violations) crosses the pool as data
  and re-raises with its original type; the server maps it to a failed
  job, never a retry.

``pool_jobs=1`` runs jobs inline in the executor thread (no worker
processes): deadlines and death-recovery are then inert, which is the
documented trade-off of a single-process deployment.

Workers bridge progress out through the obs heartbeat relay
(:class:`~repro.obs.live.HeartbeatRelay`, subscribed to ``sa.step`` /
``route.task`` events) over one :class:`~repro.obs.live.BeatPipe`, the
heartbeat channel the CLI's ``--live`` uses too.  The server creates
it before the pool: workers inherit its write end through the pool
initializer, the inline path writes to it directly, and the server
pumps the beats into per-job SSE streams.  Writing a beat takes no
lock, so a deadline kill that stops a worker mid-beat cannot wedge the
channel for later jobs.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import partial
from typing import Any

from repro.errors import (
    ParallelExecutionError,
    ParallelTimeoutError,
    ReproError,
)
from repro.obs.instrument import Instrumentation, InstrumentationSnapshot
from repro.obs.live import (
    BeatPipe,
    BeatSender,
    HeartbeatRelay,
    install_beats,
    installed_beats,
)
from repro.parallel.pool import PoolSession

__all__ = [
    "DEFAULT_RETRIES",
    "JobDeadlineError",
    "JobExecutor",
    "JobOutcome",
    "JobTask",
    "execute_submission",
]

#: Default pool-rebuild retries per job before giving up.
DEFAULT_RETRIES = 3

class JobDeadlineError(ReproError):
    """Raised when a job exceeds its deadline (the job fails; the
    server's worker pool is recycled and keeps serving)."""


@dataclass(frozen=True)
class JobTask:
    """Picklable pool payload: one submission document to synthesize."""

    document: dict[str, Any]
    #: Job id stamped on the job's heartbeats; empty runs silent.
    label: str = ""


@dataclass(frozen=True)
class JobOutcome:
    """What one executed job ships back across the pool boundary."""

    #: Canonical result-document text (what the cache stores verbatim).
    result_text: str
    #: Schema-1 ledger record for the run (``source`` added server-side).
    record: dict[str, Any]
    #: Worker telemetry, absorbed into the server's instrumentation.
    snapshot: InstrumentationSnapshot


def execute_submission(
    task: JobTask, beats: BeatSender | None = None
) -> JobOutcome:
    """Worker entry point: parse, synthesize, serialise.

    Runs with a private :class:`~repro.obs.Instrumentation` whose sink
    is the heartbeat relay when the task has a label and a beat pipe is
    at hand (*beats*, else the pool worker's inherited one), so SA
    convergence and routing progress stream back to the server while
    histograms/counters ride home in the snapshot.
    """
    from repro.core.baseline import synthesize_problem_baseline
    from repro.core.digest import canonical_json
    from repro.core.synthesizer import synthesize_problem
    from repro.obs.ledger import build_record
    from repro.serve.protocol import parse_submission, result_document

    submission = parse_submission(task.document)
    problem = submission.problem
    beats = beats if beats is not None else installed_beats()
    relay = (
        HeartbeatRelay(
            beats, worker=0, seed=problem.parameters.seed, label=task.label
        )
        if beats is not None and task.label
        else None
    )
    instrumentation = Instrumentation(sink=relay)
    try:
        synthesize = (
            synthesize_problem_baseline
            if submission.algorithm == "baseline"
            else synthesize_problem
        )
        result = synthesize(problem, instrumentation=instrumentation)
    finally:
        if relay is not None:
            relay.close()
    text = canonical_json(result_document(result, submission.digest))
    record = build_record(
        result, histograms=instrumentation.histogram_summaries()
    )
    return JobOutcome(
        result_text=text,
        record=record,
        snapshot=instrumentation.snapshot(),
    )


class JobExecutor:
    """The server's bridge from accepted jobs to pool executions."""

    def __init__(
        self,
        pool_jobs: int = 1,
        retries: int = DEFAULT_RETRIES,
        instrumentation: Instrumentation | None = None,
        beats: BeatPipe | None = None,
    ) -> None:
        #: Heartbeat channel of labelled jobs; ``None`` runs them silent.
        self.beats = beats
        sender = beats.sender if beats is not None else None
        self.session = PoolSession(
            jobs=pool_jobs, initializer=install_beats, initargs=(sender,)
        )
        # Pool workers hold the pipe from the initializer; an inline
        # run is handed it.
        self._run = partial(execute_submission, beats=sender)
        self.retries = max(0, retries)
        self.instrumentation = instrumentation
        self._lock = threading.Lock()

    @property
    def pool_jobs(self) -> int:
        return self.session.jobs

    def close(self) -> None:
        self.session.close()

    def _count(self, name: str) -> None:
        if self.instrumentation is not None:
            self.instrumentation.count(name)

    def execute(
        self,
        document: dict[str, Any],
        deadline: float | None = None,
        label: str = "",
    ) -> JobOutcome:
        """Run one job to completion (blocking; call from a thread).

        Beats of a job with a *label* go to :attr:`beats`.  Raises
        :class:`JobDeadlineError` past *deadline* seconds, re-raises
        worker domain errors with their original type, and raises
        :class:`~repro.errors.ParallelExecutionError` only after
        ``retries`` pool rebuilds failed in a row.
        """
        task = JobTask(document=document, label=label)
        run = self._run if self.session.jobs == 1 else execute_submission
        attempt = 0
        while True:
            try:
                [outcome] = self.session.run(run, [task], timeout=deadline)
                return outcome
            except ParallelTimeoutError as error:
                # The deadline kill poisoned (and terminated) the shared
                # pool; recycle it so the *next* job gets fresh workers.
                self._reset()
                self._count("serve.deadline_kills")
                raise JobDeadlineError(
                    f"job exceeded its {deadline:.1f}s deadline "
                    f"(worker pool recycled): {error}"
                ) from None
            except ParallelExecutionError as error:
                # Pool infrastructure died under this wave (worker
                # death, or a sibling's deadline kill took the shared
                # workers).  Rebuild and retry — synthesis is
                # deterministic, so re-running is always safe.
                self._reset()
                attempt += 1
                self._count("serve.pool_rebuilds")
                if attempt > self.retries:
                    raise ParallelExecutionError(
                        f"job failed after {attempt} pool rebuild(s): "
                        f"{error}"
                    ) from error
                self._count("serve.jobs_retried")

    def _reset(self) -> None:
        with self._lock:
            self.session.reset()
