"""Unit tests for spans, counters, gauges, histograms, and absorb."""

import pickle

import pytest

from repro.obs.instrument import Instrumentation
from repro.obs.sinks import NullSink, RecordingSink


class FakeClock:
    """Deterministic clock advancing by an explicit amount."""

    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def advance(self, seconds: float) -> None:
        self.t += seconds


class TestSpans:
    def test_nesting_paths_and_parent_ids(self):
        sink = RecordingSink()
        instr = Instrumentation(sink)
        with instr.span("outer") as outer:
            with instr.span("inner") as inner:
                pass
        assert outer.path == ("outer",)
        assert inner.path == ("outer", "inner")
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        starts = sink.of_kind("span_start")
        ends = sink.of_kind("span_end")
        assert [e.name for e in starts] == ["outer", "inner"]
        assert [e.name for e in ends] == ["inner", "outer"]

    def test_timing_monotonic_with_fake_clock(self):
        clock = FakeClock()
        instr = Instrumentation(clock=clock)
        with instr.span("a") as a:
            clock.advance(1.0)
            with instr.span("b") as b:
                clock.advance(2.0)
            clock.advance(0.5)
        assert b.duration == pytest.approx(2.0)
        assert a.duration == pytest.approx(3.5)
        # A child span can never outlast its parent.
        assert b.duration <= a.duration
        assert instr.span_seconds("a") == pytest.approx(3.5)
        assert instr.span_seconds(("a", "b")) == pytest.approx(2.0)

    def test_elapsed_while_open(self):
        clock = FakeClock()
        instr = Instrumentation(clock=clock)
        with instr.span("x") as x:
            clock.advance(4.0)
            assert x.elapsed() == pytest.approx(4.0)
        assert x.elapsed() == pytest.approx(x.duration)

    def test_repeated_spans_accumulate(self):
        clock = FakeClock()
        instr = Instrumentation(clock=clock)
        for _ in range(3):
            with instr.span("loop"):
                clock.advance(1.0)
        assert instr.span_seconds("loop") == pytest.approx(3.0)
        assert instr.span_counts()[("loop",)] == 3

    def test_span_closed_on_exception(self):
        instr = Instrumentation()
        with pytest.raises(ValueError):
            with instr.span("broken"):
                raise ValueError("boom")
        assert instr.current_span is None
        assert ("broken",) in instr.span_totals()

    def test_phase_times_children_of_parent(self):
        clock = FakeClock()
        instr = Instrumentation(clock=clock)
        with instr.span("synthesize"):
            with instr.span("schedule"):
                clock.advance(1.0)
            with instr.span("place"):
                clock.advance(2.0)
        phases = instr.phase_times("synthesize")
        assert list(phases) == ["schedule", "place"]
        assert phases["place"] == pytest.approx(2.0)
        roots = instr.phase_times()
        assert list(roots) == ["synthesize"]


class TestCountersAndGauges:
    def test_counter_aggregation(self):
        instr = Instrumentation()
        instr.count("moves")
        instr.count("moves", 4)
        instr.count("other", 2.5)
        assert instr.counters == {"moves": 5, "other": 2.5}

    def test_gauge_last_value_wins(self):
        instr = Instrumentation()
        instr.gauge("depth", 3)
        instr.gauge("depth", 7)
        assert instr.gauges == {"depth": 7}

    def test_counter_events_carry_running_total(self):
        sink = RecordingSink()
        instr = Instrumentation(sink)
        with instr.span("s"):
            instr.count("n", 2)
            instr.count("n", 3)
        events = sink.named("n")
        assert [e.fields["total"] for e in events] == [2, 5]
        assert all(e.span_id is not None for e in events)

    def test_point_event_fields(self):
        sink = RecordingSink()
        instr = Instrumentation(sink)
        instr.event("sa.step", temperature=100.0, energy=4.2)
        (event,) = sink.named("sa.step")
        assert event.kind == "point"
        assert event.fields == {"temperature": 100.0, "energy": 4.2}


class TestHistograms:
    def test_observe_maintains_in_memory_distribution(self):
        instr = Instrumentation()  # NullSink: aggregates still kept
        for value in (0.001, 0.002, 0.004):
            instr.observe("astar.search_seconds", value)
        histogram = instr.histogram("astar.search_seconds")
        assert histogram.count == 3
        assert instr.histograms.keys() == {"astar.search_seconds"}
        summary = instr.histogram_summaries()["astar.search_seconds"]
        assert summary["count"] == 3
        assert summary["min"] == pytest.approx(0.001)

    def test_unknown_histogram_is_none(self):
        assert Instrumentation().histogram("never") is None

    def test_observe_emits_histogram_events_when_live(self):
        sink = RecordingSink()
        instr = Instrumentation(sink)
        with instr.span("route"):
            instr.observe("astar.search_seconds", 0.002)
        (event,) = sink.of_kind("histogram")
        assert event.name == "astar.search_seconds"
        assert event.fields == {"value": 0.002}
        assert event.span_id is not None


class TestWorkerStamping:
    def test_worker_index_on_every_emitted_event(self):
        sink = RecordingSink()
        instr = Instrumentation(sink, worker=3)
        with instr.span("s"):
            instr.count("c", 1)
            instr.gauge("g", 1.0)
            instr.observe("h", 0.001)
            instr.event("p", x=1)
        assert sink.events and all(e.worker == 3 for e in sink.events)

    def test_main_process_events_unstamped(self):
        sink = RecordingSink()
        instr = Instrumentation(sink)
        instr.count("c", 1)
        assert sink.events[0].worker is None


class TestSnapshotAndAbsorb:
    def _worker_snapshot(self, worker, energy):
        child = Instrumentation(worker=worker)
        with child.span("sa.restart"):
            child.count("sa.moves_accepted", 10 + worker)
            child.gauge("sa.final_energy", energy)
            child.observe("sa.step_seconds", 0.001 * (worker + 1))
        return child.snapshot()

    def test_snapshot_round_trips_through_pickle(self):
        snapshot = self._worker_snapshot(2, energy=4.5)
        clone = pickle.loads(pickle.dumps(snapshot))
        assert clone.counters == snapshot.counters
        assert clone.gauges == snapshot.gauges
        assert (clone.histograms["sa.step_seconds"].counts
                == snapshot.histograms["sa.step_seconds"].counts)

    def test_snapshot_histograms_are_frozen_copies(self):
        instr = Instrumentation()
        instr.observe("h", 0.001)
        snapshot = instr.snapshot()
        instr.observe("h", 0.002)  # must not leak into the snapshot
        assert snapshot.histograms["h"].count == 1
        assert instr.histogram("h").count == 2

    def test_absorb_sums_counters_spans_and_merges_histograms(self):
        parent = Instrumentation()
        for worker in (0, 1):
            parent.absorb(self._worker_snapshot(worker, energy=5.0 - worker))
        assert parent.counters["sa.moves_accepted"] == 21
        assert parent.span_counts()[("sa.restart",)] == 2
        assert parent.histogram("sa.step_seconds").count == 2

    def test_gauges_merge_in_absorb_order(self):
        # Gauges are last-absorbed-wins, as if the child had sampled
        # them here: callers absorb in submission order.
        snapshots = [self._worker_snapshot(w, energy=float(w)) for w in range(3)]
        forward, backward = Instrumentation(), Instrumentation()
        forward.gauge("sa.final_energy", 99.0)
        for snapshot in snapshots:
            forward.absorb(snapshot)
        for snapshot in reversed(snapshots):
            backward.absorb(snapshot)
        assert forward.gauges["sa.final_energy"] == 2.0
        assert backward.gauges["sa.final_energy"] == 0.0
        assert forward.counters == backward.counters


class TestNullDefault:
    def test_null_sink_emits_nothing(self):
        class CountingNull(NullSink):
            emitted = 0

            def emit(self, event):
                CountingNull.emitted += 1

        sink = CountingNull()
        instr = Instrumentation(sink)
        assert instr.active is False
        with instr.span("s"):
            instr.count("c", 3)
            instr.gauge("g", 1)
            instr.event("e", x=1)
        assert CountingNull.emitted == 0
        # Aggregates still maintained.
        assert instr.counters == {"c": 3}
        assert instr.span_seconds("s") >= 0.0

    def test_default_instrumentation_is_inactive(self):
        assert Instrumentation().active is False
