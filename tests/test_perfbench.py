"""Smoke run of the benchmark harness on every workload, traced.

The traced run checks that the tracer can rebind the package's functions and
that traced and untraced passes give the same outputs.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["verify-sweep", "project-bulk", "stationary"])
def test_quick_traced_run_is_correct(workload):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "1",
            "--quick"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert json.loads(done.stdout.strip().splitlines()[-1])["correct"] is True
