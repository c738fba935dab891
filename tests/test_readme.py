"""The README's CLI samples are the command's real output.

Every fenced README block whose first line is a single `$ cheshire ...`
command followed by output is run, and stdout must equal the rest of the
block byte for byte.
"""

import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def cli_samples():
    samples = []
    for block in re.findall(r"^```[^\n]*\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S):
        command, _, output = block.partition("\n")
        if command.startswith("$ cheshire ") and output and not re.search(r"^\$ ", output, re.M):
            samples.append((command[len("$ cheshire "):], output))
    return samples


SAMPLES = cli_samples()


def test_readme_has_cli_samples():
    commands = [command for command, _ in SAMPLES]
    assert "scenario two-cat" in commands
    assert "pointer two-cat grin:1:R" in commands


@pytest.mark.parametrize("command,output", SAMPLES, ids=[command for command, _ in SAMPLES])
def test_readme_sample_matches_cli(command, output):
    # conftest puts src on PYTHONPATH for child interpreters
    proc = subprocess.run(
        [sys.executable, "-m", "cheshire.cli", *shlex.split(command)],
        capture_output=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == output.encode()
