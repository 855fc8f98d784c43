"""Job execution semantics: deadlines, worker death, retries.

Worker-death scenarios poison the executor's real
:class:`~repro.parallel.pool.PoolSession` with a crashing payload and
then assert the next job still completes — the recoverable-poisoning
regression that long-lived servers depend on.
"""

from __future__ import annotations

import os

import pytest

from repro.errors import ParallelExecutionError, ParallelTimeoutError
from repro.obs.instrument import Instrumentation
from repro.obs.live import BeatPipe
from repro.serve.executor import (
    JobDeadlineError,
    JobExecutor,
    JobOutcome,
    execute_submission,
    JobTask,
)


PCR = {"benchmark": "PCR", "parameters": {"seed": 1}}


def _die(_payload):
    os._exit(1)


class _FlakySession:
    """Stand-in session: dies *failures* times, then succeeds."""

    def __init__(self, failures: int, outcome: str = "ok") -> None:
        self.failures = failures
        self.outcome = outcome
        self.runs = 0
        self.resets = 0
        self.jobs = 2
        self.generations = 0

    def run(self, fn, payloads, timeout=None):
        self.runs += 1
        if self.runs <= self.failures:
            raise ParallelExecutionError("pool broke mid-wave")
        if self.outcome == "timeout":
            raise ParallelTimeoutError("wave timed out after 0.1s")
        return [self.outcome]

    def reset(self):
        self.resets += 1

    def close(self):
        pass


def _flaky_executor(failures: int, retries: int = 3, outcome: str = "ok"):
    executor = JobExecutor(pool_jobs=1, retries=retries)
    executor.session.close()
    executor.session = _FlakySession(failures, outcome=outcome)
    return executor


class TestRetryLoop:
    def test_worker_death_is_retried(self):
        instr = Instrumentation()
        executor = _flaky_executor(failures=2)
        executor.instrumentation = instr
        assert executor.execute(PCR) == "ok"
        assert executor.session.runs == 3
        assert executor.session.resets == 2
        assert instr.counters["serve.pool_rebuilds"] == 2
        assert instr.counters["serve.jobs_retried"] == 2

    def test_retry_budget_is_exhausted(self):
        executor = _flaky_executor(failures=10, retries=2)
        with pytest.raises(ParallelExecutionError, match="3 pool rebuild"):
            executor.execute(PCR)
        assert executor.session.resets == 3

    def test_deadline_fails_without_retry(self):
        instr = Instrumentation()
        executor = _flaky_executor(failures=0, outcome="timeout")
        executor.instrumentation = instr
        with pytest.raises(JobDeadlineError, match="deadline"):
            executor.execute(PCR, deadline=0.1)
        # One run, one reset (pool recycled), zero retries.
        assert executor.session.runs == 1
        assert executor.session.resets == 1
        assert "serve.jobs_retried" not in instr.counters
        assert instr.counters["serve.deadline_kills"] == 1


class TestRealPool:
    """The expensive truths: real processes, real death, real recovery."""

    def test_inline_execution_produces_an_outcome(self):
        executor = JobExecutor(pool_jobs=1)
        try:
            outcome = executor.execute(PCR)
        finally:
            executor.close()
        assert isinstance(outcome, JobOutcome)
        assert '"benchmark":"PCR"' in outcome.result_text
        assert outcome.record["benchmark"] == "PCR"

    def test_pooled_execution_matches_inline(self):
        import json

        inline = JobExecutor(pool_jobs=1)
        pooled = JobExecutor(pool_jobs=2)
        try:
            a = inline.execute(PCR)
            b = pooled.execute(PCR)
        finally:
            inline.close()
            pooled.close()
        # Determinism across process boundaries: the solutions agree
        # exactly.  (Timing fields — cpu_time_s, phase_times — are
        # measurements of *this* execution and legitimately differ;
        # byte-identity is the cache-replay contract, not a
        # re-execution one.)
        da, db = json.loads(a.result_text), json.loads(b.result_text)
        assert da["solution_digest"] == db["solution_digest"]
        assert da["digest"] == db["digest"]
        ma = {k: v for k, v in da["metrics"].items() if k != "cpu_time_s"}
        mb = {k: v for k, v in db["metrics"].items() if k != "cpu_time_s"}
        assert ma == mb

    def test_job_completes_after_worker_death(self):
        # Kill the pool out from under the executor (what the OOM
        # killer, or a sibling wave's deadline kill, does to a shared
        # session), then ask for a job: the executor must rebuild the
        # pool and deliver.
        instr = Instrumentation()
        executor = JobExecutor(pool_jobs=2, instrumentation=instr)
        try:
            with pytest.raises(ParallelExecutionError):
                executor.session.run(_die, ["x", "y"])
            assert executor.session.broken
            outcome = executor.execute(PCR)
        finally:
            executor.close()
        assert outcome.record["benchmark"] == "PCR"
        assert instr.counters["serve.pool_rebuilds"] >= 1

    def test_deadline_kills_a_real_job(self):
        # Scale50 needs ~0.3s of synthesis; a 50ms deadline must fire,
        # fail the job, and leave the executor serving.
        executor = JobExecutor(pool_jobs=2)
        try:
            with pytest.raises(JobDeadlineError):
                executor.execute(
                    {"benchmark": "Scale50", "parameters": {"seed": 1}},
                    deadline=0.05,
                )
            outcome = executor.execute(PCR)
        finally:
            executor.close()
        assert outcome.record["benchmark"] == "PCR"


def _beats_of(pipe: BeatPipe, label: str, timeout: float = 30.0) -> list:
    """Read *pipe* until *label*'s final ``done`` beat; its beats."""
    beats = []
    while pipe.reader.poll(timeout):
        beat = pipe.get()
        if beat.label == label:
            beats.append(beat)
            if beat.kind == "done":
                break
    return beats


class TestHeartbeatPipe:
    """Beats cross one inherited pipe, inline and pooled alike."""

    @pytest.mark.parametrize("pool_jobs", [1, 2])
    def test_labelled_job_streams_beats(self, pool_jobs):
        pipe = BeatPipe()
        executor = JobExecutor(pool_jobs=pool_jobs, beats=pipe)
        try:
            executor.execute(PCR, label="job-1")
            beats = _beats_of(pipe, "job-1")
        finally:
            executor.close()
            pipe.close()
        assert beats[0].kind == "sa"
        assert "temperature" in beats[0].fields
        assert beats[-1].kind == "done"

    def test_unlabelled_job_runs_silent(self):
        pipe = BeatPipe()
        executor = JobExecutor(pool_jobs=1, beats=pipe)
        try:
            executor.execute(PCR)
            assert not pipe.reader.poll(0.2)
        finally:
            executor.close()
            pipe.close()

    def test_beats_survive_a_deadline_kill(self):
        # The kill stops a worker at any instruction, possibly mid-beat.
        # The write side holds no lock, so the next job's beats (from a
        # re-forked pool, which inherits the pipe again) still arrive.
        pipe = BeatPipe()
        executor = JobExecutor(pool_jobs=2, beats=pipe)
        try:
            with pytest.raises(JobDeadlineError):
                executor.execute(
                    {"benchmark": "Scale50", "parameters": {"seed": 1}},
                    deadline=0.05,
                    label="killed",
                )
            outcome = executor.execute(PCR, label="next")
            beats = _beats_of(pipe, "next")
        finally:
            executor.close()
            pipe.close()
        assert outcome.record["benchmark"] == "PCR"
        assert executor.session.generations == 2
        assert [b.kind for b in beats][0] == "sa"
        assert beats[-1].kind == "done"

    def test_full_pipe_drops_beats_without_blocking(self):
        import queue

        pipe = BeatPipe()
        try:
            beat = {"label": "x" * 64}
            with pytest.raises(queue.Full):
                while True:  # a non-blocking end: fills, then refuses
                    pipe.sender.put_nowait(beat)
            # A beat over PIPE_BUF could not be written atomically.
            with pytest.raises(queue.Full, match="PIPE_BUF"):
                pipe.sender.put_nowait({"label": "x" * 10_000})
            assert pipe.get() == beat  # frames stay whole
        finally:
            pipe.close()

    def test_wake_ends_a_blocked_read(self):
        import threading

        pipe = BeatPipe()
        got = []
        reader = threading.Thread(target=lambda: got.append(pipe.get()))
        reader.start()
        pipe.wake()
        reader.join(timeout=10.0)
        pipe.close()
        assert not reader.is_alive()
        assert got == [None]


class TestExecuteSubmission:
    def test_worker_function_round_trip(self):
        outcome = execute_submission(JobTask(document=PCR))
        assert isinstance(outcome, JobOutcome)
        assert outcome.record["seed"] == 1
        assert outcome.snapshot.counters  # synthesis counted something

    def test_baseline_algorithm_routes_to_baseline_flow(self):
        outcome = execute_submission(
            JobTask(
                document={
                    "benchmark": "PCR",
                    "algorithm": "baseline",
                    "parameters": {"seed": 1},
                }
            )
        )
        assert outcome.record["algorithm"] == "baseline"

    def test_ledger_digest_is_the_result_digest(self):
        # The ledger record hashes the problem the job ran; it must name
        # the same content address the result document carries.
        import json

        for algorithm in ("ours", "baseline"):
            outcome = execute_submission(
                JobTask(document={**PCR, "algorithm": algorithm})
            )
            result = json.loads(outcome.result_text)
            assert outcome.record["digest"] == result["digest"]
