"""Repeat run.py over several seeds and report how much each metric spreads.

    python3 bench/steady.py --workloads synthesis,cli --seeds 1-10 --seconds 20 [--trace 1]

For each workload and metric it prints the median, the first and third
quartiles (`statistics.quantiles(values, n=4)`) and their distance as a share
of the median, and the share of failed operations. Runs go one at a time.
The raw results are written to bench/out/steady-<workload>-trace<k>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"


def seeds_of(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / med if med else 0.0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    OUT.mkdir(exist_ok=True)
    for name in args.workloads.split(","):
        runs = []
        for seed in seeds_of(args.seeds):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
            if proc.returncode != 0:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        failed = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"{name}: correct {all(r['correct'] for r in runs)}, failed shares {failed}, "
              f"attempted {[r['attempted'] for r in runs]}")
        summary = {}
        for metric, first in runs[0]["metrics"].items():
            s = spread([r["metrics"][metric]["value"] for r in runs])
            summary[metric] = s
            print(f"  {metric:40s} median {s['median']:12.6g} {first['unit']:6s} "
                  f"q1 {s['q1']:12.6g} q3 {s['q3']:12.6g} iqr/median {s['iqr_share']:.4f}")
        (OUT / f"steady-{name}-trace{args.trace}.json").write_text(
            json.dumps({"seeds": args.seeds, "seconds": args.seconds, "runs": runs, "summary": summary}, indent=1),
            encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
