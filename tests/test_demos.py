"""Every narrative script in demos/ runs to completion and prints its walk-through."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(script):
    # conftest puts src on PYTHONPATH for child interpreters; -W error matches
    # pytest's own filterwarnings = ["error"]
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(script)], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
