"""The CLI's behaviour contract as checked-in data: argv, exit code and stdout.

Each file in tests/golden/ is one call:

    $ cheshire ARGV...
    exit CODE
    STDOUT...

The argv is read with shlex and run in process through `cli.main` from the
repository root, so file arguments are paths relative to it; stdout must
equal the rest of the file byte for byte. Regenerate every case after a
deliberate output change, or add one, with

    PYTHONPATH=src python tests/test_golden.py                 # rerun every case
    PYTHONPATH=src python tests/test_golden.py NAME ARGV...    # add or replace NAME
"""

import os
import shlex
import sys
from pathlib import Path

import pytest

from conftest import run_cli

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
CASES = sorted(GOLDEN.glob("*.txt"))


def read_argv(path: Path) -> list[str]:
    command = path.read_bytes().decode("utf-8").partition("\n")[0]
    assert command.startswith("$ cheshire "), path.name
    return shlex.split(command[len("$ cheshire "):])


def render(argv: list[str]) -> str:
    result = run_cli(*argv)
    return f"$ cheshire {shlex.join(argv)}\nexit {result.exit_code}\n{result.output}"


def test_corpus_found():
    assert len(CASES) >= 30


@pytest.mark.parametrize("path", CASES, ids=lambda path: path.stem)
def test_golden_case(path, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert render(read_argv(path)) == path.read_bytes().decode("utf-8")


if __name__ == "__main__":
    os.chdir(ROOT)
    if len(sys.argv) > 1:
        targets = {GOLDEN / f"{sys.argv[1]}.txt": sys.argv[2:]}
    else:
        targets = {path: read_argv(path) for path in CASES}
    for path, argv in targets.items():
        path.write_bytes(render(argv).encode("utf-8"))
        print(path.relative_to(ROOT))
