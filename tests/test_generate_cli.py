"""Tests for the repro-generate CLI and its round trip with synthesis."""

from repro.assay.io import load_assay
from repro.cli import run as synthesize_cli
from repro.generate import build_parser, run


class TestGenerateCli:
    def test_defaults(self, tmp_path):
        target = tmp_path / "bench.json"
        assert run([str(target)]) == 0
        assay = load_assay(target)
        assert len(assay) == 20
        assert assay.name == "bench"

    def test_custom_parameters(self, tmp_path):
        target = tmp_path / "big.json"
        assert run([
            str(target), "-n", "30", "-m", "4", "-H", "2", "-f", "2",
            "-d", "2", "--seed", "9", "--name", "custom",
        ]) == 0
        assay = load_assay(target)
        assert len(assay) == 30
        assert assay.name == "custom"

    def test_deterministic_per_seed(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run([str(a), "--seed", "5", "--name", "same"])
        run([str(b), "--seed", "5", "--name", "same"])
        assert a.read_text() == b.read_text()

    def test_invalid_size_fails_cleanly(self, tmp_path, capsys):
        assert run([str(tmp_path / "x.json"), "-n", "1"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_round_trip_with_synthesize_cli(self, tmp_path, capsys):
        target = tmp_path / "flow.json"
        assert run([str(target), "-n", "12", "--seed", "3"]) == 0
        capsys.readouterr()
        assert synthesize_cli([
            str(target), "-m", "3", "-H", "2", "-f", "1", "-d", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "execution time" in out

    def test_parser_defaults(self):
        args = build_parser().parse_args(["x.json"])
        assert args.operations == 20
        assert args.seed == 0
