"""Event-name subscription: a sink that reads two names pays for two.

:attr:`repro.obs.sinks.Sink.subscribed` lets a sink name the events it
reads; :class:`~repro.obs.instrument.Instrumentation` then builds no
other event.  What it must not change: the aggregates (counters,
gauges, histograms, span counts) and the synthesis result.
"""

from __future__ import annotations

import queue

import pytest

from repro.benchmarks.registry import get_benchmark
from repro.core.digest import canonical_json
from repro.core.io import result_to_dict
from repro.core.problem import SynthesisParameters, SynthesisProblem
from repro.core.synthesizer import synthesize_problem
from repro.obs.instrument import Instrumentation
from repro.obs.live import HeartbeatRelay
from repro.obs.sinks import NullSink, RecordingSink, TeeSink

WATCHED = frozenset({"sa.step", "route.task"})


class WatchingRecorder(RecordingSink):
    subscribed = WATCHED


def _problem(name: str, seed: int = 1) -> SynthesisProblem:
    case = get_benchmark(name)
    return SynthesisProblem(
        assay=case.assay,
        allocation=case.allocation,
        parameters=SynthesisParameters(seed=seed),
    )


def _solution_text(result) -> str:
    document = result_to_dict(result)
    del document["metrics"]["cpu_time_s"]  # a measurement, not solution
    return canonical_json(document)


class TestSubscription:
    def test_default_sinks_read_every_name(self):
        for sink in (NullSink(), RecordingSink(), TeeSink()):
            assert sink.subscribed is None

    def test_relay_subscribes_to_its_two_names(self):
        assert HeartbeatRelay.subscribed == WATCHED

    def test_only_subscribed_point_events_are_built(self):
        sink = WatchingRecorder()
        instr = Instrumentation(sink)
        with instr.span("outer"):
            instr.count("sa.moves_accepted", 3)
            instr.gauge("sa.final_energy", 1.0)
            instr.observe("sa.step_seconds", 0.001)
            instr.event("sa.restart", seed=1)
            instr.event("sa.step", temperature=5.0)
            instr.event("route.task", task_id="t0")
        assert [(e.kind, e.name) for e in sink.events] == [
            ("point", "sa.step"),
            ("point", "route.task"),
        ]
        # The aggregates are kept for every name.
        assert instr.counters == {"sa.moves_accepted": 3}
        assert instr.gauges == {"sa.final_energy": 1.0}
        assert instr.histogram("sa.step_seconds").count == 1
        assert instr.span_counts() == {("outer",): 1}

    def test_synthesis_streams_only_the_watched_events(self):
        sink = WatchingRecorder()
        instr = Instrumentation(sink)
        synthesize_problem(_problem("CPA"), instrumentation=instr)
        assert {e.name for e in sink.events} == WATCHED
        assert all(e.kind == "point" for e in sink.events)
        counters = instr.counters
        assert len(sink.named("sa.step")) == counters["sa.temperature_steps"]
        assert len(sink.named("route.task")) == counters["route.tasks_routed"]

    def test_tee_still_sees_the_whole_stream(self):
        recorder = RecordingSink()
        relay = HeartbeatRelay(queue.Queue(), worker=0, seed=1)
        instr = Instrumentation(TeeSink(recorder, relay))
        synthesize_problem(_problem("PCR"), instrumentation=instr)
        kinds = {e.kind for e in recorder.events}
        assert {"span_start", "span_end", "counter", "histogram",
                "point"} <= kinds


class TestRelayChangesNothing:
    @pytest.mark.parametrize("name", ["PCR", "CPA"])
    def test_aggregates_equal_under_relay_and_null_sink(self, name):
        snapshots = []
        for sink in (None, HeartbeatRelay(queue.Queue(), worker=0, seed=1)):
            instr = Instrumentation(sink)
            synthesize_problem(_problem(name), instrumentation=instr)
            snapshots.append(instr.snapshot())
        null, relayed = snapshots
        assert relayed.counters == null.counters
        assert relayed.gauges == null.gauges
        assert relayed.span_counts == null.span_counts
        # Span totals and histogram values are wall-clock measurements;
        # their paths and observation counts are not.
        assert relayed.span_totals.keys() == null.span_totals.keys()
        assert {k: h.count for k, h in relayed.histograms.items()} == {
            k: h.count for k, h in null.histograms.items()
        }

    @pytest.mark.parametrize("name", ["PCR", "CPA"])
    def test_solution_documents_byte_equal(self, name):
        beats = queue.Queue()
        relay = HeartbeatRelay(beats, worker=0, seed=1, interval=0.0)
        off = synthesize_problem(_problem(name))
        on = synthesize_problem(
            _problem(name), instrumentation=Instrumentation(relay)
        )
        assert _solution_text(on) == _solution_text(off)
        assert relay.sent == beats.qsize() > 0
