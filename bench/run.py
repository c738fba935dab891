"""The cheshire benchmark: every workload in its own process, checked outputs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

NAME is one of synthesis, pointer, optics, patterns, cli (README.md says
what each runs and why). With --trace 0 the last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics ops_per_s, op_ms_p50, op_ms_p90, setup_s and
peak_rss_mb; with --trace 1 the metrics are the per-layer ones of spans.py.
With --workload all, the last line holds one such object per workload. The
full result of each run, with the machine it ran on, is written to
bench/out/. Exits 2 without a result if the package source is missing or a
workload process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("synthesis", "pointer", "optics", "patterns", "cli")
SETUP_RUNS = 5  # set-up time is the median over this many fresh processes
TIMEOUT_S = 170

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class WorkloadFailed(RuntimeError):
    pass


def spawn(name: str, seed: int, seconds: float, trace: int, setup_only: bool) -> tuple[dict, float]:
    """Run workload.py once; return its result and the setup time seen from here."""
    cmd = [sys.executable, str(BENCH / "workload.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    # own session, so a timeout also stops the CLI processes a workload starts
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            cwd=ROOT, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise WorkloadFailed(f"{name} did not finish within {TIMEOUT_S} s") from None
    if proc.returncode != 0 or not stdout.strip():
        raise WorkloadFailed(f"{name} exited {proc.returncode}:\n{stderr.strip()}")
    result = json.loads(stdout.strip().splitlines()[-1])
    return result, result["ready"] - t0


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    # set-up probes before and after the timed run, so their median spans it
    probes = 0 if trace else SETUP_RUNS - 1
    setups = [spawn(name, seed, seconds, trace, setup_only=True)[1] for _ in range(probes // 2)]
    result, setup = spawn(name, seed, seconds, trace, setup_only=False)
    setups.append(setup)
    setups += [spawn(name, seed, seconds, trace, setup_only=True)[1] for _ in range(probes - probes // 2)]
    result["setup_s"] = statistics.median(setups)
    result["setup_samples_s"] = setups
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{name}-seed{seed}-trace{trace}.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    if trace:
        metrics = result["layers"]
    else:
        metrics = {k: {"value": result[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    print(f"{name}: machine {json.dumps(result['machine'])}")
    for failure in result["failures"] + result["mismatches"]:
        print(f"{name}: {failure}")
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def describe(name: str, out: dict) -> str:
    """One line per workload; per-layer metrics of layers it does not call (0) are left out."""
    values = ", ".join(f"{k} {m['value']:.6g} {m['unit']}" for k, m in out["metrics"].items() if m["value"])
    return (f"{name}: correct={out['correct']} attempted={out['attempted']} "
            f"failed={out['failed']}: {values}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not (ROOT / "src" / "cheshire" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'cheshire'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    outputs = {}
    try:
        for name in names:
            outputs[name] = run_workload(name, args.seed, args.seconds, args.trace)
            print(describe(name, outputs[name]), flush=True)
    except WorkloadFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(outputs if args.workload == "all" else outputs[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
