"""Self-test of the benchmark: a smoke pass of every workload.

    python3 perfbench/selftest.py

Runs each workload of ``BENCHMARK.json`` untraced and traced on its
smallest plan (``--smoke``) and checks that

* every metric ``BENCHMARK.json`` names is emitted, with its unit, and
  nothing else;
* no operation failed;
* the untraced and the traced run of one seed print the same plan
  fingerprint and quality sums (same work, same results);
* the service's server, pool and manager processes are gone afterwards,
  no run leaves an orphaned Python process behind, and the temporary
  state is gone;
* without the program's source the benchmark exits non-zero and prints
  no result.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from common import ROOT, WORK_DIR, alive

HERE = Path(__file__).resolve().parent


def orphans() -> set[int]:
    """Live Python processes whose parent has exited (adopted by init)."""
    found = set()
    for entry in os.listdir("/proc"):
        if entry.isdigit() and alive(int(entry)):
            try:
                with open(f"/proc/{entry}/stat", encoding="ascii") as stat:
                    ppid = stat.read().rsplit(")", 1)[1].split()[1]
                with open(f"/proc/{entry}/cmdline", "rb") as cmdline:
                    python = b"python" in cmdline.read()
            except OSError:
                continue
            if ppid == "1" and python:
                found.add(int(entry))
    return found


def run(workload: str, trace: int, root: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(root / HERE.name / "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=900,
    )


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []
    for workload in (w["name"] for w in spec["workloads"]):
        plans = set()
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{workload} --trace {trace}"
            before = orphans()
            completed = run(workload, trace)
            left = orphans() - before
            if left:
                problems.append(f"{label}: processes outlived the run {left}")
            lines = completed.stdout.strip().splitlines()
            if completed.returncode != 0 or not lines:
                problems.append(f"{label}: exit {completed.returncode}\n"
                                f"{completed.stderr[-2000:]}")
                continue
            result = json.loads(lines[-1])
            expected = {m["name"]: m["unit"] for m in spec[section]}
            emitted = {name: m["unit"] for name, m in result["metrics"].items()}
            if emitted != expected:
                problems.append(f"{label}: metrics {emitted} != {expected}")
            if not result["correct"] or result["failed"] or (
                result["attempted"] < 1
            ):
                problems.append(f"{label}: failed operations\n"
                                f"{completed.stderr[-2000:]}")
            plans.add(next(l for l in lines if l.startswith("plan ")))
            for line in lines:
                if line.startswith("service processes "):
                    pids = [int(p) for p in line.split()[-1].split(",")]
                    left = [pid for pid in pids if alive(pid)]
                    if not pids or left:
                        problems.append(f"{label}: processes left {left}")
            print(f"ok {label}: {len(emitted)} metrics", flush=True)
        if len(plans) != 1:
            problems.append(f"{workload}: plans differ {plans}")
    if WORK_DIR.exists() and any(WORK_DIR.iterdir()):
        problems.append(f"temporary state left in {WORK_DIR}")

    bare = WORK_DIR / "selftest-bare"
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        completed = run("table1", 0, root=bare)
        if completed.returncode == 0 or completed.stdout.strip():
            problems.append("ran without the program's source")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        if WORK_DIR.is_dir() and not any(WORK_DIR.iterdir()):
            WORK_DIR.rmdir()

    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
