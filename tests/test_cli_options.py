"""CLI option semantics: flags must actually change the run."""

import re

from repro.cli import run


def _exec_time(output: str) -> float:
    match = re.search(r"execution time :\s+([0-9.]+) s", output)
    assert match, output
    return float(match.group(1))


class TestTcFlag:
    def test_larger_tc_slower_or_equal(self, capsys):
        assert run(["PCR", "--tc", "1"]) == 0
        fast = _exec_time(capsys.readouterr().out)
        assert run(["PCR", "--tc", "4"]) == 0
        slow = _exec_time(capsys.readouterr().out)
        assert slow >= fast


class TestSeedFlag:
    def test_same_seed_reproduces(self, capsys):
        assert run(["IVD", "--seed", "7"]) == 0
        first = capsys.readouterr().out
        assert run(["IVD", "--seed", "7"]) == 0
        second = capsys.readouterr().out
        # CPU time lines differ; compare everything else.
        strip = lambda text: [
            line for line in text.splitlines() if "cpu time" not in line
        ]
        assert strip(first) == strip(second)


class TestFig2aByName:
    def test_fig2a_is_a_known_benchmark(self, capsys):
        assert run(["Fig2a"]) == 0
        assert "Fig2a" in capsys.readouterr().out


class TestParallelFlags:
    def test_jobs_flag_reproduces_serial_output(self, capsys):
        """--jobs must never change an answer, only wall-clock."""
        assert run(["PCR", "--seed", "5", "--restarts", "3"]) == 0
        serial = capsys.readouterr().out
        assert run(["PCR", "--seed", "5", "--restarts", "3", "--jobs", "2"]) == 0
        pooled = capsys.readouterr().out
        strip = lambda text: [
            line for line in text.splitlines() if "cpu time" not in line
        ]
        assert strip(serial) == strip(pooled)

    def test_invalid_restarts_exits_with_domain_code(self, capsys):
        assert run(["PCR", "--restarts", "0"]) == 3
        assert "restarts" in capsys.readouterr().err


class TestEngineFlag:
    def test_unknown_engine_rejected(self, capsys):
        import pytest

        with pytest.raises(SystemExit):  # argparse usage error
            run(["PCR", "--engine", "quantum"])

    def test_reference_engine_rejected(self, capsys):
        import pytest

        with pytest.raises(SystemExit) as exit_info:
            run(["PCR", "--engine", "reference"])
        assert exit_info.value.code == 2


class TestRouteEngineFlag:
    def test_route_engines_reproduce_identical_results(self, capsys):
        """The flat router and the reference A* oracle must print the
        same synthesis summary for a shared seed (the routing-parity
        guarantee, end to end)."""
        from tests.oracles.astar import reference_routing

        with reference_routing():
            assert run(["IVD", "--seed", "3", "--no-ledger"]) == 0
        reference = capsys.readouterr().out
        assert run(["IVD", "--seed", "3", "--no-ledger"]) == 0
        flat = capsys.readouterr().out
        strip = lambda text: [
            line for line in text.splitlines() if "cpu time" not in line
        ]
        assert strip(reference) == strip(flat)

    def test_unknown_route_engine_rejected(self):
        import pytest

        with pytest.raises(SystemExit):  # argparse usage error
            run(["PCR", "--route-engine", "quantum"])

    def test_route_engine_flag_removed(self):
        import pytest

        with pytest.raises(SystemExit) as exit_info:
            run(["PCR", "--route-engine", "flat"])
        assert exit_info.value.code == 2
