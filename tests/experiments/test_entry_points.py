"""The README's reproduction commands run as ``python -m`` without warnings."""

import os
import subprocess
import sys
from pathlib import Path

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
