"""Chrome trace-event export tests (``python -m repro trace2chrome``)."""

import json

from repro.obs.export import convert_trace, run_trace2chrome, trace_to_chrome
from repro.obs.instrument import Instrumentation
from repro.obs.sinks import JsonlSink


def _record(kind, name, t=0.0, worker=None, fields=None, span=1):
    record = {"kind": kind, "name": name, "t": t, "span": span, "parent": None}
    if worker is not None:
        record["worker"] = worker
    if fields:
        record["fields"] = fields
    return record


class TestTraceToChrome:
    def test_tid_mapping_main_then_workers(self):
        events = [
            _record("span_start", "synthesize"),
            _record("span_start", "sa.restart", worker=0),
            _record("span_start", "sa.restart", worker=3),
        ]
        chrome = trace_to_chrome(events)
        slices = [e for e in chrome if e["ph"] == "B"]
        assert [e["tid"] for e in slices] == [0, 1, 4]
        names = {
            e["tid"]: e["args"]["name"]
            for e in chrome
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert names == {0: "main", 1: "worker 0", 4: "worker 3"}

    def test_span_pairs_become_b_e_slices(self):
        events = [
            _record("span_start", "place", t=1.0),
            _record("span_end", "place", t=3.0, fields={"duration": 2.0}),
        ]
        begin, end = (e for e in trace_to_chrome(events) if e["ph"] in "BE")
        assert (begin["ph"], end["ph"]) == ("B", "E")
        assert begin["name"] == end["name"] == "place"
        assert begin["ts"] == 1.0e6 and end["ts"] == 3.0e6  # µs

    def test_counters_and_gauges_become_counter_tracks(self):
        events = [
            _record("counter", "sa.moves", fields={"delta": 1, "total": 5}),
            _record("gauge", "proc.rss_bytes", fields={"value": 1024.0}),
        ]
        tracks = [e for e in trace_to_chrome(events) if e["ph"] == "C"]
        assert len(tracks) == 2
        assert tracks[0]["args"]["total"] == 5
        assert tracks[1]["args"]["value"] == 1024.0

    def test_non_numeric_counter_args_dropped(self):
        events = [_record("gauge", "g", fields={"value": "high", "n": 2})]
        (track,) = (e for e in trace_to_chrome(events) if e["ph"] == "C")
        assert track["args"] == {"n": 2}

    def test_points_and_histograms_become_instants(self):
        events = [
            _record("point", "sa.step", fields={"temperature": 50.0}),
            _record("histogram", "astar.search_seconds", fields={"value": 1e-4}),
        ]
        instants = [e for e in trace_to_chrome(events) if e["ph"] == "i"]
        assert [e["cat"] for e in instants] == ["point", "histogram"]
        assert all(e["s"] == "t" for e in instants)

    def test_unknown_kinds_skipped(self):
        assert trace_to_chrome([_record("mystery", "x")]) == []


class TestConvertTrace:
    def _trace(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlSink(path) as sink:
            instr = Instrumentation(sink)
            with instr.span("synthesize"):
                instr.count("n", 1)
                instr.observe("astar.search_seconds", 1e-4)
        return path

    def test_default_output_suffix_and_document_shape(self, tmp_path):
        trace = self._trace(tmp_path)
        output = convert_trace(trace)
        assert output == tmp_path / "trace.chrome.json"
        document = json.loads(output.read_text())
        assert document["displayTimeUnit"] == "ms"
        events = document["traceEvents"]
        begins = [e for e in events if e["ph"] == "B"]
        ends = [e for e in events if e["ph"] == "E"]
        assert len(begins) == len(ends) == 1

    def test_cli_round_trip(self, tmp_path, capsys):
        trace = self._trace(tmp_path)
        out = tmp_path / "out.json"
        assert run_trace2chrome([str(trace), "-o", str(out)]) == 0
        assert "wrote" in capsys.readouterr().out
        assert out.exists()

    def test_cli_converts_a_trace_torn_mid_line(self, tmp_path, capsys):
        """A run killed mid-write leaves a torn last line; the intact
        lines still convert."""
        trace = self._trace(tmp_path)
        data = trace.read_bytes()
        last_line = data.rstrip(b"\n").rsplit(b"\n", 1)[-1]
        assert len(last_line) > 40  # the cut lands inside the last line
        trace.write_bytes(data[:-40])
        out = tmp_path / "out.json"
        assert run_trace2chrome([str(trace), "-o", str(out)]) == 0
        assert "wrote" in capsys.readouterr().out
        events = json.loads(out.read_text())["traceEvents"]
        intact = data.count(b"\n") - 1
        assert len([e for e in events if e["ph"] != "M"]) == intact

    def test_cli_missing_input(self, tmp_path, capsys):
        assert run_trace2chrome([str(tmp_path / "nope.jsonl")]) == 2
        assert "not found" in capsys.readouterr().out


class TestMergedMultiWorkerTrace:
    def test_worker_span_ids_do_not_collide_across_tracks(self):
        # Two workers both number their spans from 1; the exporter must
        # keep them on separate tids rather than merging by bare span id.
        events = []
        for worker in (0, 1):
            events.append(_record("span_start", "sa.restart", worker=worker,
                                  span=1, t=0.1))
            events.append(_record("span_end", "sa.restart", worker=worker,
                                  span=1, t=0.2))
        chrome = [e for e in trace_to_chrome(events) if e["ph"] in "BE"]
        per_tid = {}
        for e in chrome:
            per_tid.setdefault(e["tid"], []).append(e["ph"])
        assert per_tid == {1: ["B", "E"], 2: ["B", "E"]}
