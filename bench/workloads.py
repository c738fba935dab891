"""The five workloads: seeded inputs, one round of operations, and their checks.

A workload builder takes a numpy Generator and a directory it may write
input files to, and returns a `Workload`: a few warm-up operations and one
round of operations. A run repeats the round, so every run attempts the same
operations in the same proportions. Each operation carries a size class; the
class shares are chosen so that the median and the 90th percentile of a
run's latencies fall well inside one class each, never on the boundary
between two (see README.md).

Operations call the package through module attributes (`solver.assemble`,
not `from cheshire.solver import assemble`), so a traced run that replaces
those attributes sees every call.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracle as O
from cheshire import hilbert, optics, scenarios, solver, weakval

GS = (1e-2, 5e-3, 2.5e-3)
SIGMA_P = 0.5
PATTERN_TOL = 1e-10


@dataclass
class Op:
    name: str   # what the operation does, e.g. "solve.delta"
    cls: str    # size class, e.g. "n4"
    run: Callable[[], object]
    check: Callable[[object], None]


@dataclass
class Workload:
    warmup: list[Op]
    round: list[Op]


# ---------------------------------------------------------------------------
# inputs shared by several workloads


def observable(conv: hilbert.BasisConvention, spec: tuple) -> hilbert.Operator:
    kind = spec[0]
    if kind == "sigma":
        return hilbert.circular_sigma_z(conv, spec[1])
    if kind == "id":
        return hilbert.identity_op(conv)
    if kind == "add":
        return hilbert.op_add(observable(conv, spec[1]), observable(conv, spec[2]))
    if kind == "scale":
        return hilbert.op_scale(spec[1], observable(conv, spec[2]))
    if kind == "compose":
        return hilbert.op_compose(observable(conv, spec[1]), observable(conv, spec[2]))
    return weakval.observable_for(conv, kind, spec[1], spec[2])


def random_spec(rng: np.random.Generator, n: int, kind: str | None = None) -> tuple:
    """A path, grin or sigma observable on a random photon (and arm)."""
    kind = kind or ("path", "grin", "sigma")[int(rng.integers(3))]
    photon = int(rng.integers(1, n + 1))
    return (kind, photon) if kind == "sigma" else (kind, photon, "LR"[int(rng.integers(2))])


def random_pair(rng: np.random.Generator, n: int) -> tuple[dict, dict]:
    """Sparse pre and post on two basis states each, sharing one, with a clear overlap."""
    while True:
        idx = [int(k) for k in rng.choice(4**n, 3, replace=False)]
        amp = lambda: complex(*rng.normal(size=2))  # noqa: E731
        pre = {idx[0]: amp(), idx[1]: amp()}
        post = {idx[0]: amp(), idx[2]: amp()}
        if abs(O.braket(post, pre)) >= 0.1 * O.norm(post) * O.norm(pre):
            return pre, post


def random_angles(rng: np.random.Generator) -> tuple[float, float]:
    return float(rng.uniform(0.1, math.pi / 2 - 0.1)), float(rng.uniform(0, 2 * math.pi))


def ket(n: int, amps: dict) -> hilbert.Ket:
    return hilbert.make_ket(hilbert.BasisConvention(n), amps)


# ---------------------------------------------------------------------------
# synthesis: assemble + solve_post + verify on delta and random target sets

# Per class: delta problems, random problems. Shares: n2 15 %, n3 20 %,
# n4 30 % (ranks 35-65 %, holds the median), n5 15 %, n6 20 % (ranks 80-100 %,
# holds the 90th percentile). The solve time of a random problem varies
# about twofold between seeds, so the two classes that hold a percentile
# carry only the paper's delta targets.
SYNTHESIS_MIX = {2: (2, 1), 3: (1, 3), 4: (6, 0), 5: (1, 2), 6: (4, 0)}


def _synthesis_op(n: int, pre: dict, targets: list[tuple[tuple, complex]], name: str) -> Op:
    pre_ket = ket(n, pre)
    conv = pre_ket.convention

    def run():
        wanted = [solver.WeakValueTarget(observable(conv, spec), w) for spec, w in targets]
        post = solver.solve_post(solver.assemble(pre_ket, wanted))
        return post, solver.verify(pre_ket, post, wanted)

    def check(out):
        post, residual = out
        O._require(residual <= O.WEAK_TOL, f"verify residual {residual}")
        O.check_synthesis(n, pre, targets, post.amplitudes)

    return Op(name, f"n{n}", run, check)


def _delta_problem(rng: np.random.Generator, n: int, index: int):
    if n == 2 and index % 2 == 0:
        pre, _ = O.general_two_cat_states(*random_angles(rng))
    else:
        pre, _ = O.n_cat_states(n)
    return pre, [(spec, complex(w)) for spec, w in O.delta_pattern(n).items()]


def _random_problem(rng: np.random.Generator, n: int):
    pre, post = random_pair(rng, n)
    specs = [random_spec(rng, n) for _ in range(2 * n)]
    return pre, [(s, O.weak_value(n, s, pre, post)) for s in specs]


def synthesis(rng: np.random.Generator, scratch: Path) -> Workload:
    ops = []
    for n, (delta, rand) in SYNTHESIS_MIX.items():
        for i in range(delta):
            ops.append(_synthesis_op(n, *_delta_problem(rng, n, i), "solve.delta"))
        for _ in range(rand):
            ops.append(_synthesis_op(n, *_random_problem(rng, n), "solve.random"))
    warm = [_synthesis_op(2, *_delta_problem(rng, 2, 1), "warmup")]
    return Workload(warm, ops)


# ---------------------------------------------------------------------------
# pointer: convergence checks of pointer_shift at three couplings

# Shares: n2 24 %, n3 52 % (ranks 24-76 %, holds the median), n4 22 %
# (ranks 76-98 %, holds the 90th percentile), n5 2 %. One n=5 check takes
# about 1.8 s, so a share large enough to hold the 90th percentile would not
# fit ten of them above it in a run (README.md). Within a class the
# observable kinds take turns, and at n=2 so do the two families, so that a
# seed changes photons, arms and angles but not the mix.
POINTER_MIX = {2: 12, 3: 26, 4: 11, 5: 1}
POINTER_KINDS = ("grin", "path", "sigma")


def _pointer_op(rng: np.random.Generator, n: int, index: int) -> Op:
    if n == 2 and index % 2:
        pre, post = O.general_two_cat_states(*random_angles(rng))
    else:
        pre, post = O.n_cat_states(n)
    spec = random_spec(rng, n, POINTER_KINDS[index % 3])
    pair = weakval.PrePostPair(ket(n, pre), ket(n, post), n)
    obs = observable(pair.convention, spec)
    want = O.weak_value(n, spec, pre, post)

    def run():
        return [weakval.pointer_shift(obs, pair, weakval.PointerConfig(g=g, sigma_p=SIGMA_P)) for g in GS]

    def check(shifts):
        O.check_pointer(want, list(GS), shifts, SIGMA_P)

    return Op("pointer", f"n{n}", run, check)


def pointer(rng: np.random.Generator, scratch: Path) -> Workload:
    ops = [_pointer_op(rng, n, i) for n, count in POINTER_MIX.items() for i in range(count)]
    return Workload([_pointer_op(rng, 2, 0)], ops)


# ---------------------------------------------------------------------------
# optics: exact runs, calibration and Monte Carlo on the bundled device and
# on seeded detuned copies of it

# Shares: exact 35 %, calibrate 35 % (together ranks 0-70 %, hold the median),
# 1e5 shots 5 %, 1e6 shots 5 %, 1e7 shots 20 % (ranks 80-100 %, hold the
# 90th percentile).
OPTICS_EXACT, OPTICS_CALIBRATE = 7, 7
OPTICS_SHOTS = {100_000: 1, 1_000_000: 1, 10_000_000: 4}


def bundled_text() -> str:
    return Path(optics.builtin_circuit_path()).read_text(encoding="utf-8")


def detuned_text(rng: np.random.Generator, text: str) -> str:
    """The bundled device with every splitter and the phase plate set at random."""
    lines = []
    for line in text.splitlines():
        words = line.split()
        if words[:2] == ["element", "bs"]:
            a, b = rng.uniform(0, 2 * math.pi, size=2)
            r = complex(math.sin(a) * math.cos(b), math.sin(a) * math.sin(b))
            words = [w for w in words if not w.startswith(("t=", "r="))]
            words += [f"t={math.cos(a)!r}", f"r=({r.real!r}+{r.imag!r}*i)"]
        elif words[:2] == ["element", "phase"]:
            words = [w for w in words if not w.startswith("shift=")] + [f"shift={rng.uniform(0, 2 * math.pi)!r}"]
        lines.append(" ".join(words))
    return "\n".join(lines) + "\n"


TWO_CAT_PRE = O.n_cat_states(2)[0]


def _exact_op(text: str, bundled: bool) -> Op:
    def run():
        circ = optics.parse_circuit(text)
        return optics.run_exact(circ), optics.effective_postselection(circ)

    def check(out):
        result, post = out
        probs = result.probabilities()
        O.check_probabilities(probs)
        # the success functional is not normalized where the device loses light
        O.check_success(probs, "D5", abs(O.braket(post.amplitudes, TWO_CAT_PRE)) ** 2)
        if bundled:
            O.check_success(probs, "D5", 1 / 6)
            for spec, want in O.delta_pattern(2).items():
                got = O.weak_value(2, spec, TWO_CAT_PRE, post.amplitudes)
                O._require(abs(got - want) <= PATTERN_TOL, f"bundled device: {spec} weak value {got}")

    return Op("exact", "exact", run, check)


def _calibrate_op(circ: optics.Circuit, rng: np.random.Generator) -> Op:
    _, target = O.general_two_cat_states(*random_angles(rng))
    target_ket = ket(2, target)

    def run():
        tuned = optics.calibrate_postselection(circ, target_ket).circuit
        return optics.run_exact(tuned), optics.effective_postselection(tuned)

    def check(out):
        result, post = out
        probs = result.probabilities()
        O.check_probabilities(probs)
        O.check_success(probs, "D5", O.success_probability(target, TWO_CAT_PRE))
        O.check_fidelity(post.amplitudes, target)

    return Op("calibrate", "calibrate", run, check)


def _sampling_op(circ: optics.Circuit, probs: dict, shots: int, seed: int) -> Op:
    def run():
        return optics.run_monte_carlo(circ, shots, seed)

    def check(record):
        O.check_counts(record.counts, shots, probs)

    return Op("monte_carlo", f"s1e{round(math.log10(shots))}", run, check)


def optics_workload(rng: np.random.Generator, scratch: Path) -> Workload:
    text = bundled_text()
    detuned = [detuned_text(rng, text) for _ in range(OPTICS_EXACT + OPTICS_CALIBRATE)]
    device = optics.parse_circuit(text)
    probs = optics.run_exact(device).probabilities()  # checked by the bundled exact op
    ops = [_exact_op(text, True)] + [_exact_op(detuned[i], False) for i in range(OPTICS_EXACT - 1)]
    ops += [_calibrate_op(optics.parse_circuit(detuned[-1 - i]), rng) for i in range(OPTICS_CALIBRATE)]
    for shots, count in OPTICS_SHOTS.items():
        ops += [_sampling_op(device, probs, shots, int(rng.integers(2**31))) for _ in range(count)]
    warm = [_exact_op(text, True), _calibrate_op(device, rng), _sampling_op(device, probs, 4096, 1)]
    return Workload(warm, ops)


# ---------------------------------------------------------------------------
# patterns: weak-value reports and operator products, sparse work only

# Per round: 120 n-cat reports with n spread log-uniformly over 2..512 (one
# draw in each of 120 equal slices of log n), 40 general_two_cat reports on a
# jittered 5 x 8 (theta, phi) grid, 40 product checks on random sparse pairs with
# n <= 4.
PATTERNS_NCAT, PATTERNS_GENERAL, PATTERNS_PRODUCTS = 120, 40, 40
NCAT_MAX = 512


def _report_op(sid: scenarios.ScenarioId, pre: dict, post: dict, cls: str) -> Op:
    n = sid.n_photons

    def run():
        pair = scenarios.build_pair(sid)
        return pair, weakval.weak_value_report(pair), scenarios.expected_pattern(sid)

    def check(out):
        pair, report, pattern = out
        want = O.delta_pattern(n)
        O._require(pattern == want, "expected_pattern differs from the paper's delta pattern")
        for got, ref in ((pair.pre.amplitudes, pre), (pair.post.amplitudes, post)):
            O._require(got.keys() == ref.keys() and all(abs(got[k] - ref[k]) <= 1e-15 for k in ref),
                       f"{sid} states differ from the closed form")
        O.check_report(n, report.entries, pre, post, want, PATTERN_TOL)

    return Op("report", cls, run, check)


def _products_op(rng: np.random.Generator) -> Op:
    n = int(rng.integers(1, 5))
    pre, post = random_pair(rng, n)
    pair = weakval.PrePostPair(ket(n, pre), ket(n, post), n)
    a, b = random_spec(rng, n), random_spec(rng, n)
    c = complex(*rng.normal(size=2))
    specs = {"a": a, "b": b, "add": ("add", a, b), "scale": ("scale", c, a),
             "compose": ("compose", a, b), "id": ("id",)}

    def run():
        conv = pair.convention
        return {key: weakval.weak_value(observable(conv, spec), pair) for key, spec in specs.items()}

    def check(values):
        O.check_linearity(values, c)
        for key, spec in specs.items():
            ref = O.weak_value(n, spec, pre, post)
            O._require(abs(values[key] - ref) <= O.WEAK_TOL * (1 + abs(ref)), f"w({spec}) = {values[key]}, oracle {ref}")

    return Op("products", "products", run, check)


def patterns(rng: np.random.Generator, scratch: Path) -> Workload:
    ops = []
    span = math.log(NCAT_MAX / 2)
    for i in range(PATTERNS_NCAT):
        n = round(2 * math.exp(span * (i + rng.random()) / PATTERNS_NCAT))
        ops.append(_report_op(scenarios.ScenarioId("n_cat", n=n), *O.n_cat_states(n), "n_cat"))
    for i in range(PATTERNS_GENERAL):
        u, v = (i // 8 + rng.random()) / (PATTERNS_GENERAL // 8), (i % 8 + rng.random()) / 8
        theta, phi = 0.05 + u * (math.pi / 2 - 0.1), 2 * math.pi * v
        sid = scenarios.ScenarioId("general_two_cat", theta=theta, phi=phi)
        ops.append(_report_op(sid, *O.general_two_cat_states(theta, phi), "general"))
    ops += [_products_op(rng) for _ in range(PATTERNS_PRODUCTS)]
    order = rng.permutation(len(ops))
    warm = [_report_op(scenarios.ScenarioId("n_cat", n=2), *O.n_cat_states(2), "n_cat"), _products_op(rng)]
    return Workload(warm, [ops[i] for i in order])


# ---------------------------------------------------------------------------
# cli: the `cheshire` command as a subprocess, every subcommand and format

# Per round: five calls of each subcommand, the three --format values spread
# across them. Interpreter start and import dominate every call, so all
# operations form one size class.
CLI_SHOTS = 100_000


def parse_rows(text: str, fmt: str) -> tuple[list[dict], dict]:
    """Rows and meta fields of the CLI's table/csv/json row rendering."""
    if fmt == "json":
        payload = json.loads(text)
        return payload.pop("rows"), payload
    lines = text.splitlines()
    sep = "," if fmt == "csv" else None
    header = lines[0].split(sep)
    rows, meta = [], {}
    for line in lines[1:]:
        if line.startswith("# "):
            key, value = line[2:].split(" ", 1)
            meta[key] = value
        else:
            rows.append(dict(zip(header, line.split(sep))))
    return rows, meta


def parse_report(text: str, fmt: str) -> dict:
    """Weak-value entries of `cheshire scenario` output, checking its PASS verdict."""
    entries = {}
    if fmt == "json":
        payload = json.loads(text)
        O._require(payload["pattern_match"] is True, "scenario did not report a pattern match")
        for e in payload["entries"]:
            entries[(e["kind"], e["photon"], e["arm"])] = complex(e["re"], e["im"])
        return entries
    lines = text.splitlines()
    O._require("PASS" in lines[-1], "scenario did not report a pattern match")
    for line in lines[1:-1]:
        cells = line.split(",") if fmt == "csv" else line.split()
        if cells[0].strip().isdigit():
            entries[(cells[1], int(cells[0]), cells[2])] = complex(float(cells[3]), float(cells[4]))
    return entries


def problem_text(n: int, pre: dict, targets: list[tuple[tuple, complex]]) -> str:
    lines = [f"photons {n}"]
    lines += [f"pre {k:0{2 * n}b} {a.real!r} {a.imag!r}" for k, a in sorted(pre.items())]
    lines += [f"target {O.spec_text(s)} {w.real!r} {w.imag!r}" for s, w in targets]
    return "\n".join(lines) + "\n"


def _cli_op(argv: list[str], check: Callable[[str], None]) -> Op:
    cmd = [sys.executable, "-m", "cheshire.cli", *argv]

    def run():
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        return proc.returncode, proc.stdout, proc.stderr

    def check_call(out):
        code, stdout, stderr = out
        O._require(code == 0, f"{' '.join(argv)} exited {code}: {stderr.strip()}")
        check(stdout)

    return Op(argv[2], "cli", run, check_call)


def _scenario_call(fmt: str, sid: str, n: int, pre: dict, post: dict) -> Op:
    def check(stdout):
        O.check_report(n, parse_report(stdout, fmt), pre, post, O.delta_pattern(n), 1e-10)

    return _cli_op(["--format", fmt, "scenario", sid], check)


def _solve_call(fmt: str, path: Path, n: int, pre: dict, targets: list) -> Op:
    def check(stdout):
        rows, _ = parse_rows(stdout, fmt)
        post = {int(r["label"], 2): complex(float(r["re"]), float(r["im"])) for r in rows}
        O.check_synthesis(n, pre, targets, post)

    return _cli_op(["--format", fmt, "solve", str(path)], check)


def _circuit_call(fmt: str, circuit: str, emit: str, probs: dict, seed: int) -> Op:
    def check(stdout):
        rows, meta = parse_rows(stdout, fmt)
        tol = O.PROB_TOL if fmt == "json" else 1e-10  # table and csv print 12 significant digits
        if emit == "probs":
            got = {r["pattern"]: float(r["probability"]) for r in rows}
            O.check_probabilities(got, tol)
            O.check_success(got, "D5", 1 / 6, tol)
        elif emit == "counts":
            O.check_counts({r["pattern"]: int(r["count"]) for r in rows}, CLI_SHOTS, probs)
        else:
            O._require(meta["pattern"] == "D5", f"conditional state for {meta['pattern']}")
            O._require(abs(float(meta["probability"]) - 1 / 6) <= tol, f"P(D5) = {meta['probability']}")
            mass = sum(float(r["re"]) ** 2 + float(r["im"]) ** 2 for r in rows)
            O._require(abs(mass - 1) <= tol, f"conditional state has norm^2 {mass}")

    argv = ["--format", fmt, "circuit", circuit, "--emit", emit]
    if emit == "counts":
        argv += ["--shots", str(CLI_SHOTS), "--seed", str(seed)]
    return _cli_op(argv, check)


def _pointer_call(fmt: str, sid: str, spec: tuple, n: int, pre: dict, post: dict) -> Op:
    want = O.weak_value(n, spec, pre, post)

    def check(stdout):
        rows, meta = parse_rows(stdout, fmt)
        O._require(meta["convergence"] == "PASS", "pointer convergence reported FAIL")
        O._require(abs(float(meta["re_weak_value"]) - want.real) <= 1e-10, "re_weak_value differs from the oracle")
        gs = [float(r["g"]) for r in rows]
        O.check_pointer(complex(want.real, 0), gs, [(float(r["shift_over_g"]) * g, 0.0) for r, g in zip(rows, gs)], SIGMA_P)

    return _cli_op(["--format", fmt, "pointer", sid, O.spec_text(spec)], check)


def cli(rng: np.random.Generator, scratch: Path) -> Workload:
    formats = ("table", "csv", "json")
    fmt = lambda i: formats[i % 3]  # noqa: E731
    circuit = optics.builtin_circuit_path()
    probs = optics.run_exact(optics.parse_circuit_file(circuit)).probabilities()  # checked by `circuit probs`

    def general_id():
        theta, phi = random_angles(rng)
        return f"general:theta={theta!r},phi={phi!r}", O.general_two_cat_states(theta, phi)

    ops = [_scenario_call(fmt(0), "two-cat", 2, *O.n_cat_states(2))]
    for i in range(1, 3):
        n = int(rng.integers(3, 9))
        ops.append(_scenario_call(fmt(i), f"n-cat:n={n}", n, *O.n_cat_states(n)))
    for i in range(3, 5):
        sid, states = general_id()
        ops.append(_scenario_call(fmt(i), sid, 2, *states))

    problems = [(2, _delta_problem(rng, 2, 0)), (3, _delta_problem(rng, 3, 0))]
    problems += [(n, _random_problem(rng, n)) for n in (2, 2, 3)]
    for i, (n, (pre, targets)) in enumerate(problems):
        path = scratch / f"problem{i}.problem"
        path.write_text(problem_text(n, pre, targets), encoding="utf-8")
        ops.append(_solve_call(fmt(i + 1), path, n, pre, targets))

    emits = ("probs", "probs", "counts", "counts", "conditional-state")
    ops += [_circuit_call(fmt(i + 2), circuit, e, probs, int(rng.integers(2**31))) for i, e in enumerate(emits)]

    for i in range(5):
        if i % 2:
            sid, (pre, post) = general_id()
            n = 2
        else:
            n = int(rng.integers(2, 4))
            sid, (pre, post) = f"n-cat:n={n}", O.n_cat_states(n)
        ops.append(_pointer_call(fmt(i), sid, random_spec(rng, n), n, pre, post))
    warm = [_scenario_call("table", "two-cat", 2, *O.n_cat_states(2))]
    return Workload(warm, ops)


BUILDERS = {
    "synthesis": synthesis,
    "pointer": pointer,
    "optics": optics_workload,
    "patterns": patterns,
    "cli": cli,
}
