"""Tests for the process-pool primitive: ordering and error transport.

The worker callables live at module level so they can be pickled by the
``ProcessPoolExecutor`` path.
"""

from __future__ import annotations

import time

import pytest

from repro.errors import (
    GraphCycleError,
    ParallelExecutionError,
    ParallelTimeoutError,
    ReproError,
    RoutingError,
)
from repro.parallel.pool import (
    PoolSession,
    _rebuild_exception,
    _WorkerFailure,
    resolve_jobs,
)


def _square(x: int) -> int:
    return x * x


def _raise_routing(_payload) -> None:
    raise RoutingError("no path for task", task_id="t42")


def _raise_cycle(_payload) -> None:
    raise GraphCycleError(["a", "b", "a"])


def _raise_value_error(_payload) -> None:
    raise ValueError("not a repro error")


def _sleep_forever(_payload) -> None:
    time.sleep(60)


def _die_abruptly(payload):
    # Simulates a worker crashing mid-checkpoint: the process vanishes
    # without unwinding, exactly what a segfault or OOM kill looks like
    # to the executor.
    if payload == "die":
        import os

        os._exit(1)
    return payload


def _slow_then_raise(payload):
    if payload == "raise":
        raise RoutingError("checkpoint lost", task_id="arm3")
    time.sleep(0.05)
    return payload


class TestRunTasks:
    """One :meth:`PoolSession.run` wave: inline semantics and order."""

    def test_inline_matches_map(self):
        with PoolSession(jobs=1) as session:
            assert session.run(_square, [3, 1, 2]) == [9, 1, 4]

    def test_pooled_matches_inline_in_submission_order(self):
        payloads = list(range(7))
        with PoolSession(jobs=3) as session:
            assert session.run(_square, payloads) == [
                x * x for x in payloads
            ]


class TestResolveJobs:
    def test_identity_for_positive(self):
        assert resolve_jobs(3) == 3

    def test_zero_and_none_mean_cpu_count(self):
        import os

        assert resolve_jobs(0) == (os.cpu_count() or 1)
        assert resolve_jobs(None) == (os.cpu_count() or 1)

    def test_negative_rejected(self):
        with pytest.raises(ParallelExecutionError, match="jobs"):
            resolve_jobs(-2)


class TestErrorTransport:
    """ReproError subclasses must cross the pool boundary losslessly."""

    def test_original_type_and_message_reraised(self):
        with PoolSession(jobs=2) as session:
            with pytest.raises(RoutingError, match="no path for task"):
                session.run(_raise_routing, [1, 2])

    def test_custom_init_signature_survives(self):
        # GraphCycleError's __init__ takes a cycle list, not a message —
        # naive exception pickling reconstructs it wrongly, the data
        # transport must not.
        with PoolSession(jobs=2) as session:
            with pytest.raises(GraphCycleError, match="a -> b -> a"):
                session.run(_raise_cycle, [1, 2])

    def test_worker_traceback_attached(self):
        with PoolSession(jobs=2) as session:
            with pytest.raises(RoutingError) as excinfo:
                session.run(_raise_routing, [1, 2])
        assert "RoutingError" in excinfo.value.worker_traceback

    def test_inline_path_raises_natively(self):
        with PoolSession(jobs=1) as session:
            with pytest.raises(RoutingError) as excinfo:
                session.run(_raise_routing, [1, 2])
        # Inline execution preserves the full exception object.
        assert excinfo.value.task_id == "t42"

    def test_non_repro_errors_propagate(self):
        with PoolSession(jobs=2) as session:
            with pytest.raises(ValueError, match="not a repro error"):
                session.run(_raise_value_error, [1, 2])


class TestPoolSession:
    """The wave-oriented session the portfolio racer rides."""

    def test_waves_reuse_the_pool_in_order(self):
        with PoolSession(jobs=2) as session:
            first = session.run(_square, [1, 2, 3])
            second = session.run(_square, first)
        assert first == [1, 4, 9]
        assert second == [1, 16, 81]

    def test_inline_session_matches_pooled(self):
        payloads = list(range(5))
        with PoolSession(jobs=1) as inline, PoolSession(jobs=3) as pooled:
            assert inline.run(_square, payloads) == pooled.run(
                _square, payloads
            )

    def test_empty_wave(self):
        with PoolSession(jobs=2) as session:
            assert session.run(_square, []) == []

    def test_repro_error_preserves_type_and_session(self):
        # A domain error mid-wave is the task's failure, not the
        # pool's: the original type crosses the boundary and the
        # session stays usable for the next wave.
        with PoolSession(jobs=2) as session:
            with pytest.raises(RoutingError, match="checkpoint lost"):
                session.run(_slow_then_raise, ["a", "raise", "b"])
            assert session.run(_square, [2, 3]) == [4, 9]

    def test_deadline_poisons_the_session(self):
        with PoolSession(jobs=2) as session:
            with pytest.raises(ParallelExecutionError, match="timed out"):
                session.run(_sleep_forever, [1, 2], timeout=0.5)
            # Later waves must fail fast, not dispatch onto a dead pool.
            with pytest.raises(ParallelExecutionError, match="unusable"):
                session.run(_square, [1])

    def test_worker_death_mid_wave_poisons_the_session(self):
        with PoolSession(jobs=2) as session:
            with pytest.raises(ParallelExecutionError, match="broke"):
                session.run(_die_abruptly, ["ok", "die", "ok"])
            with pytest.raises(ParallelExecutionError, match="unusable"):
                session.run(_square, [1])

    def test_close_is_idempotent_and_clean_after_death(self):
        session = PoolSession(jobs=2)
        with pytest.raises(ParallelExecutionError):
            session.run(_die_abruptly, ["die", "die"])
        session.close()
        session.close()

    def test_deadline_raises_timeout_subtype(self):
        # Deadline expiry and worker death must be distinguishable by
        # type: the serve executor fails the job on the former but
        # rebuilds-and-retries on the latter.
        with PoolSession(jobs=2) as session:
            with pytest.raises(ParallelTimeoutError):
                session.run(_sleep_forever, [1, 2], timeout=0.5)

    def test_reset_recovers_a_poisoned_session(self):
        # Long-lived servers cannot treat poisoning as terminal: after
        # reset() the session must build a fresh pool and serve waves
        # again.
        with PoolSession(jobs=2) as session:
            with pytest.raises(ParallelExecutionError):
                session.run(_die_abruptly, ["ok", "die"])
            assert session.broken
            session.reset()
            assert not session.broken
            assert session.run(_square, [2, 3]) == [4, 9]

    def test_reset_recovers_after_deadline_kill(self):
        with PoolSession(jobs=2) as session:
            with pytest.raises(ParallelTimeoutError):
                session.run(_sleep_forever, [1, 2], timeout=0.3)
            session.reset()
            assert session.run(_square, [5, 6]) == [25, 36]

    def test_reset_on_healthy_session_is_harmless(self):
        with PoolSession(jobs=2) as session:
            assert session.run(_square, [2]) == [4]
            session.reset()
            assert session.run(_square, [3]) == [9]

    def test_generations_count_pool_builds(self):
        with PoolSession(jobs=2) as session:
            assert session.generations == 0
            session.run(_square, [1, 2])
            session.run(_square, [3, 4])
            assert session.generations == 1  # same pool reused
            with pytest.raises(ParallelExecutionError):
                session.run(_die_abruptly, ["die", "die"])
            session.reset()
            session.run(_square, [5, 6])
            assert session.generations == 2

    def test_deadline_does_not_hang_shutdown(self):
        # The poisoned pool terminates its sleeping workers; closing
        # the session (and exiting the interpreter) must be prompt.
        started = time.monotonic()
        session = PoolSession(jobs=2)
        with pytest.raises(ParallelExecutionError):
            session.run(_sleep_forever, [1, 2], timeout=0.3)
        session.close()
        assert time.monotonic() - started < 10.0


class TestRebuildException:
    def test_rebuilds_repro_subclass(self):
        failure = _WorkerFailure(
            exc_module="repro.errors",
            exc_qualname="RoutingError",
            message="boom",
            traceback_text="tb",
        )
        exc = _rebuild_exception(failure)
        assert type(exc) is RoutingError
        assert str(exc) == "boom"
        assert isinstance(exc, ReproError)
        assert exc.worker_traceback == "tb"

    def test_unknown_class_degrades_to_parallel_error(self):
        failure = _WorkerFailure(
            exc_module="no.such.module",
            exc_qualname="Ghost",
            message="boom",
            traceback_text="tb",
        )
        exc = _rebuild_exception(failure)
        assert type(exc) is ParallelExecutionError
        assert "Ghost" in str(exc) and "boom" in str(exc)

    def test_non_repro_class_degrades_to_parallel_error(self):
        failure = _WorkerFailure(
            exc_module="builtins",
            exc_qualname="ValueError",
            message="boom",
            traceback_text="tb",
        )
        exc = _rebuild_exception(failure)
        assert type(exc) is ParallelExecutionError
