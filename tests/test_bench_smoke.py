"""The benchmark's workloads run and pass their own checks.

Each workload runs for one short stretch (at least 100 operations, or one
whole round) in its own process, as `bench/run.py` would start it, and its
outputs are checked against `bench/oracle.py`. The cli workload is left out:
its 100 interpreter starts take 10-25 s.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

WORKLOAD = Path(__file__).resolve().parents[1] / "bench" / "workload.py"


@pytest.mark.parametrize("workload", ["synthesis", "pointer", "optics", "patterns"])
def test_workload_runs_correctly(workload):
    argv = [sys.executable, str(WORKLOAD), "--workload", workload, "--seed", "1", "--seconds", "0", "--trace", "0"]
    proc = subprocess.run(argv, capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, result
    assert result["failed"] == 0, result
    assert result["attempted"] >= 100
