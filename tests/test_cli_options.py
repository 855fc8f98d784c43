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


class TestPortfolioFlags:
    def test_portfolio_output_identical_across_jobs(self, capsys):
        args = ["PCR", "--portfolio", "4", "--rungs", "2", "--no-ledger"]
        assert run(args) == 0
        serial = capsys.readouterr().out
        assert run(args + ["--jobs", "2"]) == 0
        pooled = capsys.readouterr().out
        strip = lambda text: [
            line for line in text.splitlines() if "cpu time" not in line
        ]
        assert strip(serial) == strip(pooled)
        assert any("portfolio" in line for line in strip(serial))

    def test_arms_spec_implies_portfolio(self, capsys):
        assert run(
            ["PCR", "--arms", "inc,inc:cool=0.8", "--rungs", "2",
             "--no-ledger"]
        ) == 0
        assert "portfolio" in capsys.readouterr().out

    def test_arm_count_mismatch_is_a_domain_error(self, capsys):
        assert run(
            ["PCR", "--portfolio", "3", "--arms", "inc,inc", "--no-ledger"]
        ) == 3
        assert "disagrees" in capsys.readouterr().err

    def test_bad_arm_spec_is_a_domain_error(self, capsys):
        assert run(["PCR", "--arms", "warp:k=4", "--no-ledger"]) == 3
        assert "unknown engine" in capsys.readouterr().err

    def test_seed_derivation_flag_reproduces(self, capsys):
        args = ["PCR", "--restarts", "3", "--seed-derivation", "splitmix",
                "--no-ledger"]
        assert run(args) == 0
        first = capsys.readouterr().out
        assert run(args) == 0
        second = capsys.readouterr().out
        strip = lambda text: [
            line for line in text.splitlines() if "cpu time" not in line
        ]
        assert strip(first) == strip(second)


class TestEngineFlag:
    def test_engines_reproduce_identical_results(self, capsys):
        """The incremental engine and the batch engine at --batch-size 1
        must print the same synthesis summary for a shared seed (the
        K=1 bit-parity guarantee, end to end)."""
        assert run(["PCR", "--seed", "3", "--engine", "batch",
                    "--batch-size", "1"]) == 0
        batch = capsys.readouterr().out
        assert run(["PCR", "--seed", "3", "--engine", "incremental"]) == 0
        incremental = capsys.readouterr().out
        strip = lambda text: [
            line for line in text.splitlines() if "cpu time" not in line
        ]
        assert strip(batch) == strip(incremental)

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
