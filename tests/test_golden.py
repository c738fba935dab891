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

import json
import os
import shlex
import subprocess
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


# Runs each argv through `cli.main` with numpy unimportable and prints one
# JSON list of [exit code, stdout] pairs.
NUMPY_FREE_RUNNER = """\
import contextlib, io, json, sys
sys.modules["numpy"] = None
from cheshire.cli import main
results = []
for argv in json.loads(sys.stdin.read()):
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            main(argv)
    except SystemExit as exc:
        results.append([exc.code, out.getvalue()])
print(json.dumps(results))
"""


def numpy_free(argv: list[str]) -> bool:
    """Only `solve`, `pointer` and `circuit --emit counts` may load numpy."""
    if "scenario" in argv:
        return True
    return "circuit" in argv and "counts" not in argv


def test_numpy_free_cases_run_without_numpy():
    cases = [path for path in CASES if numpy_free(read_argv(path))]
    assert len(cases) >= 31
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_FREE_RUNNER],
        input=json.dumps([read_argv(path) for path in cases]),
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    for path, (code, output) in zip(cases, json.loads(proc.stdout), strict=True):
        want = path.read_bytes().decode("utf-8")
        assert f"$ cheshire {shlex.join(read_argv(path))}\nexit {code}\n{output}" == want, path.name


if __name__ == "__main__":
    os.chdir(ROOT)
    if len(sys.argv) > 1:
        targets = {GOLDEN / f"{sys.argv[1]}.txt": sys.argv[2:]}
    else:
        targets = {path: read_argv(path) for path in CASES}
    for path, argv in targets.items():
        path.write_bytes(render(argv).encode("utf-8"))
        print(path.relative_to(ROOT))
