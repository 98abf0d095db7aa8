"""Keeps the benchmark runnable: every workload, both modes, at tiny sizes.

    python3 -m pytest bench

Checks only that runs are correct and every declared metric is present and
finite; no wall-clock figure is judged.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def test_smoke_runs_every_workload_and_reports_every_metric():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=300, cwd=BENCH.parent,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["ok"], summary["problems"]
