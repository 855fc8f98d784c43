"""Tests for the portfolio bench report and the bench command line."""

from __future__ import annotations

import json

import pytest

from repro.perf.report import (
    portfolio_rows_to_payload,
    render_portfolio_table,
    write_bench_json,
)


def fake_portfolio_row(better=True, ratio=1.5, clean=True):
    return {
        "benchmark": "Scale50",
        "seed": 1,
        "arms": 4,
        "rungs": 3,
        "restarts_equal_budget": 2,
        "initial_energy_ref": 900.0,
        "portfolio": {
            "energy": 300.0,
            "cpu_seconds": 1.0,
            "candidates": 1000,
            "efficiency": 600.0,
            "winner": "a000",
            "winner_spec": "inc",
            "kills": {"a000": None},
        },
        "multistart": {
            "energy": 320.0,
            "cpu_seconds": 1.45,
            "candidates": 1000,
            "efficiency": 400.0,
        },
        "efficiency_ratio": ratio,
        "portfolio_better": better,
        "deterministic_across_jobs": True,
        "determinism_jobs": [1, 4],
        "checker_clean": clean,
    }


class TestReport:
    def test_payload_schema(self):
        payload = portfolio_rows_to_payload(
            [fake_portfolio_row()], label="BENCH_test", quick=True
        )
        assert payload["label"] == "BENCH_test"
        assert payload["kind"] == "portfolio"
        assert payload["quick"] is True
        assert payload["all_portfolio_better"] is True
        assert payload["min_efficiency_ratio"] == pytest.approx(1.5)
        (row,) = payload["benchmarks"]
        assert row["benchmark"] == "Scale50"

    def test_payload_empty(self):
        payload = portfolio_rows_to_payload([], label="x")
        assert payload["benchmarks"] == []
        assert payload["min_efficiency_ratio"] is None
        assert payload["all_portfolio_better"] is True

    def test_payload_records_repeat_and_host_metadata(self):
        payload = portfolio_rows_to_payload([fake_portfolio_row()], label="t")
        assert payload["cpu_count"] >= 1
        assert payload["python"]
        assert payload["machine"] is not None

    def test_portfolio_payload_summarises_the_gates(self):
        payload = portfolio_rows_to_payload(
            [fake_portfolio_row(), fake_portfolio_row(better=False, ratio=0.9)],
            label="t",
        )
        assert payload["all_portfolio_better"] is False
        assert payload["all_deterministic_across_jobs"] is True
        assert payload["all_checker_clean"] is True
        assert payload["min_efficiency_ratio"] == 0.9

    def test_write_json_round_trip(self, tmp_path):
        path = tmp_path / "bench.json"
        payload = portfolio_rows_to_payload([fake_portfolio_row()], label="t")
        write_bench_json(path, payload)
        assert json.loads(path.read_text(encoding="utf-8")) == payload

    def test_table_lists_all_benchmarks(self):
        table = render_portfolio_table([fake_portfolio_row()])
        assert "Scale50" in table
        assert "1.50x" in table
        assert table.splitlines()[2].endswith("ok")

    def test_table_flags_mismatch(self):
        table = render_portfolio_table([fake_portfolio_row(clean=False)])
        assert table.splitlines()[2].endswith("FAIL")


class TestBenchCli:
    def test_quick_run_writes_artifact(self, tmp_path, capsys):
        from repro.experiments.bench import run

        out = tmp_path / "bench.json"
        status = run([
            "--portfolio", "2", "--rungs", "2", "--benchmarks", "PCR",
            "--check", "off", "--output", str(out),
        ])
        captured = capsys.readouterr()
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["kind"] == "portfolio"
        assert [row["benchmark"] for row in payload["benchmarks"]] == ["PCR"]
        assert payload["all_deterministic_across_jobs"] is True
        assert "PCR" in captured.out
        # The efficiency gate is measured in CPU seconds and may go
        # either way on a tiny assay; the verdict is reported either way.
        assert status in (0, 1)

    def test_rejects_unknown_benchmark(self):
        from repro.experiments.bench import run

        with pytest.raises(SystemExit):
            run(["--benchmarks", "NotABenchmark"])

    def test_tier_flag_required(self):
        from repro.experiments.bench import run

        with pytest.raises(SystemExit) as exit_info:
            run([])
        assert exit_info.value.code == 2
