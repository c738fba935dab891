"""The benchmark's workloads run and pass their own checks.

Each workload runs for one short stretch (at least 100 operations, or one
whole round) in its own process, as `bench/run.py` would start it, and its
outputs are checked against `bench/oracle.py`. The cli workload is left out:
its 100 interpreter starts take 10-25 s. Synthesis, optics and patterns also
run once with the trace on, which wraps package functions from outside by name.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

WORKLOAD = Path(__file__).resolve().parents[1] / "bench" / "workload.py"


def run_workload(workload, trace):
    argv = [sys.executable, str(WORKLOAD), "--workload", workload, "--seed", "1", "--seconds", "0",
            "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, result
    assert result["failed"] == 0, result
    return result


@pytest.mark.parametrize("workload", ["synthesis", "pointer", "optics", "patterns"])
def test_workload_runs_correctly(workload):
    assert run_workload(workload, trace=0)["attempted"] >= 100


@pytest.mark.parametrize("workload", ["synthesis", "optics", "patterns"])
def test_traced_workload_runs_correctly(workload):
    """The trace wraps package functions by name, so a deleted or renamed one fails here."""
    result = run_workload(workload, trace=1)
    assert result["layers"]["trace.exceptions"]["value"] == 0
