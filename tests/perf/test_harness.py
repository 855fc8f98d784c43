"""Tests for the bench artifact writer and the bench command line."""

from __future__ import annotations

import json

import pytest

from repro.serve.loadgen import write_bench_json


class TestReport:
    def test_write_json_round_trip(self, tmp_path):
        path = tmp_path / "bench.json"
        payload = {"label": "t", "rows": [{"benchmark": "PCR", "p50": 1.5}]}
        write_bench_json(path, payload)
        assert json.loads(path.read_text(encoding="utf-8")) == payload


class TestBenchCli:
    def test_tier_flag_required(self):
        from repro.experiments.bench import run

        with pytest.raises(SystemExit) as exit_info:
            run([])
        assert exit_info.value.code == 2
