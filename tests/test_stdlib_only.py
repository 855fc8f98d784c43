"""The runtime is standard-library only: the flow never imports numpy."""

import subprocess
import sys


def test_synthesis_and_service_never_import_numpy():
    # A fresh interpreter, so nothing the test session imported leaks
    # in.  Both flows run end to end on PCR and the service module
    # loads; numpy must never enter sys.modules.
    script = (
        "import sys\n"
        "import repro\n"
        "case = repro.get_benchmark('PCR')\n"
        "repro.synthesize(case.assay, case.allocation, seed=1)\n"
        "repro.synthesize_baseline(case.assay, case.allocation)\n"
        "import repro.serve.server\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True
    )
    assert completed.returncode == 0, completed.stderr
