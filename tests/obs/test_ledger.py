"""Run-ledger tests: content digest, append/read, stats."""

import json

import pytest

from repro.benchmarks.registry import get_benchmark
from repro.core.digest import problem_digest
from repro.core.problem import SynthesisParameters, SynthesisProblem
from repro.core.synthesizer import synthesize_problem
from repro.obs.instrument import Instrumentation
from repro.obs.ledger import (
    LEDGER_SCHEMA_VERSION,
    append_record,
    build_record,
    read_ledger,
    record_run,
    run_stats,
)

FAST = dict(
    initial_temperature=50.0,
    min_temperature=1.0,
    cooling_rate=0.7,
    iterations_per_temperature=25,
)


def _problem(**overrides) -> SynthesisProblem:
    case = get_benchmark("PCR")
    params = SynthesisParameters(**{"seed": 1, **FAST, **overrides})
    return SynthesisProblem(
        assay=case.assay, allocation=case.allocation, parameters=params
    )


@pytest.fixture(scope="module")
def pcr_result():
    return synthesize_problem(_problem())


class TestProblemDigest:
    def test_identical_problems_share_a_digest(self):
        assert problem_digest(_problem()) == problem_digest(_problem())

    def test_any_parameter_change_splits_the_digest(self):
        base = problem_digest(_problem())
        assert problem_digest(_problem(seed=2)) != base
        assert problem_digest(_problem(beta=0.7)) != base
        assert problem_digest(_problem(restarts=4)) != base

    def test_jobs_is_excluded_from_the_digest(self):
        # Parallelism is bit-identical by construction, so jobs must not
        # split otherwise-identical runs into different baseline groups.
        assert problem_digest(_problem(jobs=1)) == problem_digest(_problem(jobs=4))

    def test_digest_is_hex_sha256(self):
        digest = problem_digest(_problem())
        assert len(digest) == 64
        int(digest, 16)


class TestRecord:
    def test_build_record_schema(self, pcr_result):
        record = build_record(pcr_result, timestamp=123.0)
        assert record["schema"] == LEDGER_SCHEMA_VERSION
        assert record["ts"] == 123.0
        assert record["digest"] == problem_digest(pcr_result.problem)
        assert record["benchmark"] == pcr_result.problem.assay.name
        assert record["seed"] == 1
        assert record["engines"] == {
            "placement": "incremental", "route": "flat"
        }
        assert set(record["phase_times"]) == set(pcr_result.phase_times)
        assert record["cpu_time"] == pytest.approx(
            pcr_result.metrics.cpu_time, abs=1e-6
        )
        assert record["check"] is None  # --check off
        assert record["histograms"] == {}
        assert "checkpoints" not in record
        json.dumps(record)  # must be JSON-serialisable as-is

    def test_record_run_carries_histograms_and_checkpoints(
        self, pcr_result, tmp_path
    ):
        instr = Instrumentation()
        instr.observe("astar.search_seconds", 0.001)
        points = [{"worker": 0, "seed": 1, "kind": "sa", "t": 0.1}]
        path = record_run(
            pcr_result,
            instrumentation=instr,
            path=tmp_path / "ledger.jsonl",
            checkpoints=points,
        )
        (record,) = read_ledger(path)
        assert record["histograms"]["astar.search_seconds"]["count"] == 1
        assert record["checkpoints"] == points

    def test_append_creates_parent_dirs_and_appends(self, pcr_result, tmp_path):
        path = tmp_path / "nested" / "dir" / "ledger.jsonl"
        record = build_record(pcr_result, timestamp=1.0)
        append_record(record, path)
        append_record(record, path)
        assert len(read_ledger(path)) == 2

    def test_read_skips_damaged_lines(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        good = {"schema": 1, "digest": "ab", "cpu_time": 0.1}
        path.write_text(
            json.dumps(good) + "\n"
            + '{"torn": tru\n'          # crash mid-append
            + "\x00garbage\n"
            + json.dumps(good) + "\n"
        )
        assert read_ledger(path) == [good, good]

    def test_read_missing_ledger_is_empty(self, tmp_path):
        assert read_ledger(tmp_path / "absent.jsonl") == []


def _ledger_record(digest, ts, place, route=0.01, cpu=None, benchmark="pcr"):
    phase = {"schedule": 0.001, "place": place, "route": route}
    return {
        "schema": 1,
        "ts": ts,
        "digest": digest,
        "benchmark": benchmark,
        "phase_times": phase,
        "cpu_time": sum(phase.values()) if cpu is None else cpu,
        "metrics": {"execution_time_s": 21.0},
    }


class TestStatsCli:
    def _write(self, path, records):
        for record in records:
            append_record(record, path)

    def test_summary_table(self, tmp_path, capsys):
        path = tmp_path / "ledger.jsonl"
        self._write(path, [
            _ledger_record("a" * 64, 1.0, place=0.5),
            _ledger_record("a" * 64, 2.0, place=0.5),
        ])
        assert run_stats(["--ledger", str(path)]) == 0
        out = capsys.readouterr().out
        assert "2 record(s)" in out
        assert "a" * 12 in out

    def test_filters(self, tmp_path, capsys):
        path = tmp_path / "ledger.jsonl"
        self._write(path, [
            _ledger_record("a" * 64, 1.0, place=0.5, benchmark="pcr"),
            _ledger_record("b" * 64, 2.0, place=0.5, benchmark="ivd"),
        ])
        assert run_stats(
            ["--ledger", str(path), "--benchmark", "ivd", "--json"]
        ) == 0
        records = json.loads(capsys.readouterr().out)
        assert [r["benchmark"] for r in records] == ["ivd"]
        assert run_stats(
            ["--ledger", str(path), "--digest", "bbbb", "--json"]
        ) == 0
        records = json.loads(capsys.readouterr().out)
        assert [r["digest"] for r in records] == ["b" * 64]

    def test_empty_match_is_not_an_error(self, tmp_path, capsys):
        assert run_stats(["--ledger", str(tmp_path / "none.jsonl")]) == 0
        assert "no ledger records" in capsys.readouterr().out


class TestEndToEnd:
    def test_repeated_real_runs_share_a_digest_and_compare_clean(
        self, pcr_result, tmp_path, capsys
    ):
        path = tmp_path / "ledger.jsonl"
        record_run(pcr_result, path=path)
        record_run(pcr_result, path=path)
        first, second = read_ledger(path)
        assert first["digest"] == second["digest"]
        assert run_stats(["--ledger", str(path)]) == 0
        # One summary row holds both runs of the shared digest.
        row = next(
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith(first["digest"][:12])
        )
        assert row.split()[2] == "2"
