"""Live progress tests: heartbeat relay, monitor, module registry."""

import io
import queue

from repro.obs.events import Event
from repro.obs.instrument import Instrumentation
from repro.obs.live import (
    MAX_CHECKPOINTS_PER_WORKER,
    Heartbeat,
    HeartbeatRelay,
    LiveProgressMonitor,
    active_monitor,
    install_monitor,
)
from repro.obs.sinks import RecordingSink


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def _sa_step(t=0.0, **fields):
    fields.setdefault("temperature", 50.0)
    fields.setdefault("energy", 4.0)
    return Event(kind="point", name="sa.step", time=t, fields=fields)


class TestHeartbeatRelay:
    def test_translates_sa_steps_and_throttles(self):
        clock = FakeClock()
        q = queue.Queue()
        relay = HeartbeatRelay(q, worker=2, seed=7, interval=1.0, clock=clock)
        relay.emit(_sa_step(t=0.1))          # first beat always sent
        relay.emit(_sa_step(t=0.2))          # throttled (same clock time)
        clock.t = 1.5
        relay.emit(_sa_step(t=0.3))          # interval elapsed → sent
        assert relay.sent == 2
        beat = q.get_nowait()
        assert (beat.worker, beat.seed, beat.kind) == (2, 7, "sa")
        assert beat.fields["temperature"] == 50.0

    def test_ignores_unwatched_events(self):
        q = queue.Queue()
        relay = HeartbeatRelay(q, worker=0, seed=1)
        relay.emit(Event(kind="counter", name="sa.step", time=0.0))
        relay.emit(Event(kind="point", name="other", time=0.0))
        assert relay.sent == 0

    def test_route_beats_count_tasks(self):
        q = queue.Queue()
        relay = HeartbeatRelay(q, worker=0, seed=1, interval=0.0)
        for i in range(3):
            relay.emit(Event(kind="point", name="route.task", time=float(i)))
        beats = [q.get_nowait() for _ in range(3)]
        assert [b.fields["tasks_routed"] for b in beats] == [1, 2, 3]
        assert all(b.kind == "route" for b in beats)

    def test_close_sends_final_unthrottled_done_beat(self):
        clock = FakeClock()
        q = queue.Queue()
        relay = HeartbeatRelay(q, worker=1, seed=3, interval=100.0, clock=clock)
        relay.emit(_sa_step(t=0.1, energy=9.0))
        relay.emit(_sa_step(t=0.9, energy=2.0))  # throttled but retained
        relay.close()
        beats = []
        while not q.empty():
            beats.append(q.get_nowait())
        assert beats[-1].kind == "done"
        assert beats[-1].fields["energy"] == 2.0  # the *last* state

    def test_broken_queue_never_raises(self):
        class BrokenQueue:
            def put_nowait(self, item):
                raise RuntimeError("manager torn down")

        relay = HeartbeatRelay(BrokenQueue(), worker=0, seed=1, interval=0.0)
        relay.emit(_sa_step())
        relay.close()
        assert relay.sent == 0

    def test_label_stamped_on_beats_and_done(self):
        # Portfolio arms label their rows (e.g. "a002:inc"); the label
        # must ride every beat, including the final done beat.
        q = queue.Queue()
        relay = HeartbeatRelay(q, worker=2, seed=7, label="a002:inc")
        relay.emit(_sa_step(t=0.1))
        relay.close()
        beats = []
        while not q.empty():
            beats.append(q.get_nowait())
        assert beats and all(b.label == "a002:inc" for b in beats)
        assert beats[-1].kind == "done"


class TestLiveProgressMonitor:
    def test_handle_updates_state_and_checkpoints(self):
        monitor = LiveProgressMonitor()
        monitor._handle(Heartbeat(worker=0, seed=1, kind="sa", t=0.1,
                                  fields={"temperature": 9.0, "energy": 4.0}))
        monitor._handle(Heartbeat(worker=1, seed=2, kind="done", t=0.4,
                                  fields={"energy": 3.0}))
        assert monitor.received == 2
        assert monitor.state[0].kind == "sa"
        points = monitor.checkpoints()
        assert [p["worker"] for p in points] == [0, 1]
        assert points[0]["temperature"] == 9.0
        assert points[1]["kind"] == "done"

    def test_checkpoints_capped_per_worker(self):
        monitor = LiveProgressMonitor()
        for i in range(MAX_CHECKPOINTS_PER_WORKER + 25):
            monitor._handle(Heartbeat(worker=0, seed=1, kind="sa",
                                      t=float(i), fields={}))
        points = monitor.checkpoints()
        assert len(points) == MAX_CHECKPOINTS_PER_WORKER
        # The cap drops the *oldest* checkpoints, keeping the tail.
        assert points[-1]["t"] == float(MAX_CHECKPOINTS_PER_WORKER + 24)

    def test_non_scalar_fields_kept_out_of_checkpoints(self):
        monitor = LiveProgressMonitor()
        monitor._handle(Heartbeat(worker=0, seed=1, kind="sa", t=0.0,
                                  fields={"energy": 1.0, "blob": [1, 2]}))
        (point,) = monitor.checkpoints()
        assert "blob" not in point and point["energy"] == 1.0

    def test_renders_one_line_per_refresh(self):
        stream = io.StringIO()
        monitor = LiveProgressMonitor(stream=stream)
        monitor._handle(Heartbeat(worker=0, seed=1, kind="sa", t=0.1,
                                  fields={"temperature": 50.0, "energy": 4.0}))
        monitor._handle(Heartbeat(worker=1, seed=2, kind="done", t=0.2,
                                  fields={"energy": 3.5}))
        line = stream.getvalue().split("\r")[-1]
        assert "w0 sa" in line and "T=50" in line
        assert "w1 done E=3.5" in line

    def test_labelled_rows_render_the_arm_id(self):
        stream = io.StringIO()
        monitor = LiveProgressMonitor(stream=stream)
        monitor._handle(Heartbeat(worker=0, seed=1, kind="sa", t=0.1,
                                  label="a000:inc",
                                  fields={"temperature": 50.0,
                                          "energy": 4.0}))
        line = stream.getvalue().split("\r")[-1]
        assert "a000:inc sa" in line
        assert "w0" not in line

    def test_heartbeats_republished_into_instrumentation(self):
        sink = RecordingSink()
        instr = Instrumentation(sink)
        monitor = LiveProgressMonitor(instrumentation=instr)
        monitor._handle(Heartbeat(worker=0, seed=1, kind="sa", t=0.1,
                                  fields={"energy": 4.0}))
        (event,) = sink.named("live.heartbeat")
        assert event.fields["worker"] == 0
        assert event.fields["state"] == "sa"
        assert event.fields["energy"] == 4.0

    def test_start_stop_drains_its_pipe(self):
        stream = io.StringIO()
        monitor = LiveProgressMonitor(stream=stream)
        with monitor:
            assert active_monitor() is monitor
            relay = HeartbeatRelay(monitor.pipe.sender, worker=0, seed=1)
            relay.emit(_sa_step(t=0.1))
            relay.close()
            # stop() below joins the pump; beats already written are
            # drained before the sentinel lands behind them.
        assert active_monitor() is None
        assert monitor.received >= 1
        assert stream.getvalue().endswith("\n")


class TestRegistry:
    def test_install_and_clear(self):
        monitor = LiveProgressMonitor()
        install_monitor(monitor)
        assert active_monitor() is monitor
        install_monitor(None)
        assert active_monitor() is None

    def test_stale_clear_cannot_evict_newer_monitor(self):
        old = LiveProgressMonitor()
        new = LiveProgressMonitor()
        install_monitor(new)
        install_monitor(None, expected=old)  # stale stop() of `old`
        assert active_monitor() is new
        install_monitor(None)
