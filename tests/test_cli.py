"""Tests for the repro-synthesize command-line interface."""

import json

import pytest

from repro.assay.builder import AssayBuilder
from repro.assay.io import dump_assay
from repro.cli import EXIT_REPRO_ERROR, build_parser, run


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["PCR"])
        assert args.assay == "PCR"
        assert args.algorithm == "ours"
        assert args.seed == 1
        assert args.tc == 2.0

    def test_allocation_flags(self):
        args = build_parser().parse_args(
            ["x.json", "-m", "2", "-H", "1", "-f", "1", "-d", "2"]
        )
        assert (args.mixers, args.heaters, args.filters, args.detectors) == (
            2, 1, 1, 2,
        )

    def test_algorithm_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["PCR", "--algorithm", "magic"])


class TestRun:
    def test_benchmark_by_name(self, capsys):
        assert run(["PCR", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "PCR" in out
        assert "execution time" in out

    def test_baseline_flow(self, capsys):
        assert run(["PCR", "--algorithm", "baseline"]) == 0
        assert "baseline" in capsys.readouterr().out

    def test_unknown_assay_fails_cleanly(self, capsys):
        assert run(["no-such-thing"]) == EXIT_REPRO_ERROR
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    def test_custom_assay_json(self, tmp_path, capsys):
        assay = (
            AssayBuilder("tiny")
            .mix("a", duration=3, wash_time=1.0)
            .mix("b", duration=3, after=["a"], wash_time=1.0)
            .build()
        )
        path = tmp_path / "tiny.json"
        dump_assay(assay, path)
        assert run([str(path), "-m", "2"]) == 0
        assert "tiny" in capsys.readouterr().out

    def test_custom_assay_without_allocation_fails(self, tmp_path, capsys):
        assay = AssayBuilder("t").mix("a", duration=2).build()
        path = tmp_path / "a.json"
        dump_assay(assay, path)
        # empty allocation -> AllocationError -> the distinct exit code
        assert run([str(path)]) == EXIT_REPRO_ERROR

    def test_svg_output(self, tmp_path, capsys):
        target = tmp_path / "layout.svg"
        assert run(["PCR", "--svg", str(target)]) == 0
        assert target.exists()
        assert target.read_text().startswith("<?xml")

    def test_show_layout_and_schedule(self, capsys):
        assert run(["PCR", "--show-layout", "--show-schedule"]) == 0
        out = capsys.readouterr().out
        assert "channels:" in out
        assert "#" in out


class TestObservabilityFlags:
    def test_profile_prints_phase_breakdown(self, capsys):
        assert run(["PCR", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "phase times" in out
        for phase in ("schedule", "place", "route", "metrics"):
            assert phase in out
        assert "counters" in out
        assert "astar.nodes_expanded" in out

    def test_trace_writes_parseable_jsonl(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        assert run(["PCR", "--trace", str(trace)]) == 0
        assert f"wrote trace to {trace}" in capsys.readouterr().out
        records = [
            json.loads(line) for line in trace.read_text().splitlines() if line
        ]
        assert records
        names = {r["name"] for r in records}
        assert "sa.step" in names  # SA convergence events
        assert "astar.nodes_expanded" in names  # A* counters
        sa_fields = next(r for r in records if r["name"] == "sa.step")["fields"]
        assert {"temperature", "energy", "acceptance_ratio"} <= set(sa_fields)
        assert all("span" in r for r in records)

    def test_profile_and_trace_compose_with_baseline(self, tmp_path, capsys):
        trace = tmp_path / "baseline.jsonl"
        assert run(
            ["PCR", "--algorithm", "baseline", "--profile",
             "--trace", str(trace)]
        ) == 0
        out = capsys.readouterr().out
        assert "baseline" in out
        assert "phase times" in out
        records = [
            json.loads(line) for line in trace.read_text().splitlines() if line
        ]
        assert {r["name"] for r in records} >= {"synthesize", "route.tasks_routed"}

    def test_live_pooled_restarts_end_to_end(self, tmp_path, capsys):
        import multiprocessing

        def stdout_of(argv):
            assert run(argv) == 0
            out = capsys.readouterr().out
            return [line for line in out.splitlines() if "cpu time" not in line]

        argv = ["CPA", "--seed", "3", "--restarts", "4", "--jobs", "2"]
        plain = stdout_of(argv + ["--no-ledger"])
        ledger = tmp_path / "ledger.jsonl"
        live = stdout_of(argv + ["--live", "--ledger", str(ledger)])
        # Heartbeats are telemetry: --live renders on stderr only.
        assert live == plain
        (record,) = [json.loads(line) for line in ledger.read_text().splitlines()]
        done = {p["worker"] for p in record["checkpoints"] if p["kind"] == "done"}
        assert done == {0, 1, 2, 3}
        # The pool and the beat channel leave no process behind.
        assert multiprocessing.active_children() == []

    def test_live_single_restart_end_to_end(self, tmp_path, capsys):
        """The default one-restart run relays heartbeats too, and its
        answer is the one a run without ``--live`` prints."""

        def stdout_of(argv):
            assert run(argv) == 0
            out = capsys.readouterr().out
            return [line for line in out.splitlines() if "cpu time" not in line]

        argv = ["PCR", "--seed", "1"]
        plain = stdout_of(argv + ["--no-ledger"])
        ledger = tmp_path / "ledger.jsonl"
        live = stdout_of(argv + ["--live", "--ledger", str(ledger)])
        assert live == plain
        (record,) = [json.loads(line) for line in ledger.read_text().splitlines()]
        done = {
            p["worker"] for p in record.get("checkpoints", ())
            if p["kind"] == "done"
        }
        assert done == {0}

    def test_unwritable_trace_path_fails_cleanly(self, tmp_path, capsys):
        target = tmp_path / "no-such-dir" / "trace.jsonl"
        assert run(["PCR", "--trace", str(target)]) == EXIT_REPRO_ERROR
        err = capsys.readouterr().err
        assert "cannot open trace file" in err
        assert "Traceback" not in err

    def test_trace_file_written_even_on_error(self, tmp_path, capsys):
        trace = tmp_path / "err.jsonl"
        assay = AssayBuilder("t").mix("a", duration=2).build()
        path = tmp_path / "a.json"
        dump_assay(assay, path)
        assert run([str(path), "--trace", str(trace)]) == EXIT_REPRO_ERROR
        assert trace.exists()  # sink opened and closed cleanly
