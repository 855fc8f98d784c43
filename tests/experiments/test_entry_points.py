"""The README's reproduction commands run as ``python -m`` without warnings."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro


def test_harness_module_runs_without_runpy_warning():
    # A harness module that the package imported eagerly would already
    # sit in sys.modules when runpy executes it as __main__, which
    # Python reports with a RuntimeWarning; the flag makes that fatal.
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    completed = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning",
         "-m", "repro.experiments.fig8"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert "Fig. 8" in completed.stdout


@pytest.mark.parametrize("module", ["repro.experiments.runner",
                                    "repro.experiments"])
def test_reader_closing_early_ends_the_harness_quietly(module):
    # `python -m repro.experiments.runner | head -1`: the reader takes
    # one line and closes the pipe while the harness still writes.  The
    # pipe is shrunk to one page so the harness is still writing (and
    # blocked) when it closes, whatever the scheduling.
    fcntl = pytest.importorskip("fcntl")
    if not hasattr(fcntl, "F_SETPIPE_SZ"):
        pytest.skip("needs a resizable pipe (Linux)")
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ,
           "PYTHONPATH": src + (os.pathsep + path if path else "")}
    read_end, write_end = os.pipe()
    fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, 4096)
    with subprocess.Popen(
        [sys.executable, "-m", module, "--profile"],
        stdout=write_end, stderr=subprocess.PIPE, env=env,
    ) as process:
        os.close(write_end)
        line = b""
        while not line.endswith(b"\n"):
            byte = os.read(read_end, 1)
            if not byte:
                break
            line += byte
        os.close(read_end)
        _, stderr = process.communicate(timeout=120)
    assert line.startswith(b"Table I")
    assert stderr == b"", stderr.decode()
    assert process.returncode == 1
