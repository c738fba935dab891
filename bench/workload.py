"""One workload in its own process: set up, run whole rounds, check, report.

    python3 bench/workload.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/workload.py --workload NAME --seed N --setup-only

`run.py` starts this script once per run and, for the set-up time, a few
more times with --setup-only. It prints one JSON object on its last line of
standard output. Times are `time.perf_counter()` readings, which on Linux are
CLOCK_MONOTONIC and so comparable with the parent's.

The loop is closed with one caller: each operation starts when the previous
one has returned. The first round's outputs are checked against the oracle;
later rounds repeat the same operations and must reproduce those outputs
exactly. Check time is not part of any latency.
"""

import os

# BLAS and OpenMP start their thread pools when numpy is imported; with two
# threads on two shared cores the solver's SVD became bimodal (README.md).
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
sys.path.insert(0, str(SRC))
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))

import numpy as np  # noqa: E402

import cheshire  # noqa: E402

if Path(cheshire.__file__).resolve().parent != SRC / "cheshire":
    sys.exit(f"imported cheshire from {cheshire.__file__}, not from {SRC}")

import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

MIN_OPS = 100  # op_ms_p90 needs ten operations above it
CLI_PROBES = 5
WORKLOAD_IDS = {name: i for i, name in enumerate(workloads.BUILDERS)}


def machine() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def timed_rounds(ops: list, seconds: float, tracer) -> dict:
    """Repeat the round until `seconds` have passed and MIN_OPS were attempted."""
    latencies: list[tuple[int, float]] = []
    first: dict[int, object] = {}
    failures: list[str] = []
    mismatches: list[str] = []
    attempted = rounds = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or attempted < MIN_OPS:
        if tracer is not None:
            tracer.keep = rounds == 0
        for i, op in enumerate(ops):
            attempted += 1
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    out = op.run()
                else:
                    tracer.op = i
                    out = tracer.span(f"op.{op.name}", op.run)
            except Exception as exc:  # an operation that fails is counted and the run goes on
                failures.append(f"{op.name}[{i}]: {type(exc).__name__}: {exc}")
                continue
            latencies.append((i, time.perf_counter() - t0))
            try:
                if i in first:
                    oracle.check_same(first[i], out, f"{op.name}[{i}]")
                else:
                    first[i] = out
                    op.check(out)
            except oracle.Mismatch as exc:
                mismatches.append(f"{op.name}[{i}]: {exc}")
        rounds += 1
    return {
        "attempted": attempted,
        "failures": failures,
        "mismatches": mismatches,
        "latencies": latencies,
        "rounds": rounds,
        "wall_s": time.perf_counter() - start,
    }


def latency_summary(ops: list, latencies: list[tuple[int, float]]) -> dict:
    ms = sorted(dt * 1e3 for _, dt in latencies)
    by_class: dict[str, list[float]] = {}
    for i, dt in latencies:
        by_class.setdefault(ops[i].cls, []).append(dt * 1e3)
    classes = {
        cls: {"count": len(v), "ms_min": min(v), "ms_p50": statistics.median(v), "ms_max": max(v)}
        for cls, v in by_class.items()
    }
    return {
        "ops_per_s": len(ms) / (sum(ms) / 1e3),
        "op_ms_p50": statistics.median(ms),
        "op_ms_p90": statistics.quantiles(ms, n=10, method="inclusive")[8],
        "completed": len(ms),
        "classes": classes,
    }


def cli_probes() -> dict[str, float]:
    """Median times of a bare interpreter start and of `import cheshire.cli`."""
    def run_ms(code: str) -> tuple[float, str]:
        t0 = time.perf_counter()
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        return (time.perf_counter() - t0) * 1e3, out.stdout

    interp = [run_ms("pass")[0] for _ in range(CLI_PROBES)]
    code = "import time; t = time.perf_counter(); import cheshire.cli; print(time.perf_counter() - t)"
    imports = [float(run_ms(code)[1]) * 1e3 for _ in range(CLI_PROBES)]
    return {"cli.interpreter_ms": statistics.median(interp), "cli.import_ms": statistics.median(imports)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        rng = np.random.default_rng([WORKLOAD_IDS[args.workload], args.seed])
        work = workloads.BUILDERS[args.workload](rng, scratch)
        warmup_mismatches = []
        for op in work.warmup:
            try:
                op.check(op.run())
            except Exception as exc:  # a wrong or failing warm-up makes the run incorrect
                warmup_mismatches.append(f"warm-up {op.name}: {type(exc).__name__}: {exc}")
        ready = time.perf_counter()
        if args.setup_only:
            print(json.dumps({"ready": ready}))
            return 0

        tracer = None
        if args.trace:
            tracer = spans.Tracer()
            spans.install(tracer)
        run = timed_rounds(work.round, args.seconds, tracer)
        run["mismatches"][:0] = warmup_mismatches
        summary = latency_summary(work.round, run["latencies"])
        peak_kb = max(resource.getrusage(who).ru_maxrss
                      for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
        result = {
            "workload": args.workload,
            "seed": args.seed,
            "ready": ready,
            "attempted": run["attempted"],
            "failed": len(run["failures"]),
            "correct": not run["mismatches"],
            "failures": run["failures"][:20],
            "mismatches": run["mismatches"][:20],
            "rounds": run["rounds"],
            "round_ops": len(work.round),
            "wall_s": run["wall_s"],
            "peak_rss_mb": peak_kb / 1024,
            "machine": machine(),
            **summary,
        }
        if tracer is not None:
            layers = spans.layer_values(tracer, summary["completed"])
            if args.workload == "cli":
                for sub in spans.CLI_SUBCOMMANDS:
                    ms = [dt * 1e3 for i, dt in run["latencies"] if work.round[i].name == sub]
                    layers[f"cli.{sub}.ms_p50"] = statistics.median(ms) if ms else 0.0
                layers |= cli_probes()
            layers["trace.ops_per_s"] = summary["ops_per_s"]
            layers["trace.op_ms_p50"] = summary["op_ms_p50"]
            result["layers"] = {name: {"value": layers.get(name, 0.0), "unit": unit}
                                for name, unit in spans.LAYER_UNITS.items()}
            trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            trace_path.write_text(json.dumps({
                "fields": ["id", "parent", "operation", "name", "start", "end"],
                "operations": [op.name for op in work.round],
                "spans": tracer.spans,
            }), encoding="utf-8")
            result["trace_file"] = str(trace_path.relative_to(BENCH.parent))
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
