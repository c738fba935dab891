"""Command-line interface.

Subcommands: scenario (weak-value report checked against the expected
delta pattern), solve (post-selection synthesis from a problem file),
circuit (exact or Monte Carlo interferometer runs), pointer (weak-coupling
convergence table). Global flags, given before the subcommand: --format
{table,csv,json}, --seed (default 7), --tol (default 1e-10). The parser is
the standard library's argparse and takes no abbreviated option names; an
option value that begins with '-' and is not a plain number is written
--option=value.

Tables and CSV come from one row writer: a header line, one line per row,
then one `# key value` line per scalar. `scenario` prints one row per weak
value (photon, kind, arm, re, im, and a flag `=0` or `=1` for a value within
1e-12 of that number) and ends with `# pattern_match PASS` or `FAIL`. Its JSON
is {entries, n_photons, overlap: {re, im}, pattern_match}; every other
subcommand's JSON holds the scalars beside a `rows` list.

Exit codes, stable for scripting:
    0  success / report matches
    1  computed result does not match the expected pattern or tolerance
    2  usage errors, malformed input files (with line numbers)
    3  degenerate or infeasible configurations (boundary scenario
       parameters, unsatisfiable targets, vanishing overlap)
    4  missing or unreadable files

All commands are deterministic: identical argv, files, and seed produce
byte-identical stdout.

Each subcommand is a function of the parsed arguments that imports the
modules it runs inside its own body, so a call loads only those. numpy, the
one dependency outside the standard library, is imported only by the functions that do dense
algebra or sampling: `scenario`, `circuit --emit probs` and `circuit --emit
conditional-state` never load it; `solve`, `pointer` and `circuit --emit
counts` do.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import TYPE_CHECKING, Callable, NoReturn, Sequence

from .errors import (
    AnomalousSelectionError,
    CalibrationError,
    CheshireError,
    DegenerateScenarioError,
    InfeasibleTargetsError,
    InputError,
    VacuousSelectionError,
)
from .expr import parse_natural, parse_pairs, parse_real

if TYPE_CHECKING:
    from .scenarios import ScenarioId

EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_DEGENERATE = 3
EXIT_IO = 4

_QUAD_SLACK = 8.0 / 7.0  # per-halving factor 4 / slack = 3.5
_DEV_FLOOR = 1e-9
FLAG_TOL = 1e-12  # the scenario table flags a weak value within this distance of 0 or 1


def _g(value: float) -> str:
    return "%.12g" % value


def _csv_field(text: str) -> str:
    """Quote a field holding a comma, a quote or a line break, doubling its quotes (RFC 4180)."""
    if any(c in text for c in ',"\n\r'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _render_rows(
    headers: Sequence[str],
    rows: Sequence[Sequence],
    fmt: str,
    meta: dict | None = None,
) -> str:
    """Render rows in the chosen format; meta scalars go to comment lines or JSON fields."""
    meta = meta or {}
    if fmt == "json":
        payload = {key: value for key, value in meta.items()}
        payload["rows"] = [dict(zip(headers, row)) for row in rows]
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    cells = [[_g(v) if isinstance(v, float) else str(v) for v in row] for row in rows]
    if fmt == "csv":
        lines = [",".join(map(_csv_field, row)) for row in [headers, *cells]]
        lines.extend(f"# {key} {_g(v) if isinstance(v, float) else v}" for key, v in meta.items())
        return "\n".join(lines) + "\n"
    widths = [
        max(len(header), *(len(row[i]) for row in cells)) if cells else len(header)
        for i, header in enumerate(headers)
    ]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    lines.extend(f"# {key} {_g(v) if isinstance(v, float) else v}" for key, v in meta.items())
    return "\n".join(lines) + "\n"


_DEGENERATE_ERRORS = (
    AnomalousSelectionError,
    CalibrationError,
    DegenerateScenarioError,
    InfeasibleTargetsError,
    VacuousSelectionError,
)
# first match wins: a CheshireError not listed above is a usage error
_EXIT_CODES = (
    (_DEGENERATE_ERRORS, EXIT_DEGENERATE),
    (CheshireError, EXIT_USAGE),
    (OSError, EXIT_IO),
)


def _execute(action: Callable[[], int]) -> NoReturn:
    try:
        code = action()
    except (CheshireError, OSError) as exc:
        message = f"error: {exc}"
        if isinstance(exc, AnomalousSelectionError):
            message += f" (raw overlap {exc.overlap!r})"
        sys.stderr.write(message + "\n")
        raise SystemExit(next(c for kinds, c in _EXIT_CODES if isinstance(exc, kinds))) from None
    raise SystemExit(code)


_GREEK = {"θ": "theta", "φ": "phi"}


def parse_scenario_id(text: str) -> ScenarioId:
    """Parse `single`, `two-cat`, `general:theta=..,phi=..`, `n-cat:n=..`.

    Greek spellings of the angle names are accepted; angle values are
    arithmetic expressions (pi/4, 3*pi/8, ...).
    """
    from .scenarios import ScenarioId

    ident = text.strip()
    if ident == "single":
        return ScenarioId("single")
    if ident in ("two-cat", "two_cat"):
        return ScenarioId("two_cat")
    if ident.startswith(("general:",)):
        params = parse_pairs(ident.split(":", 1)[1].split(","), ("theta", "phi"), aliases=_GREEK)
        if "theta" not in params:
            raise InputError("general scenario needs theta=... (or θ=...)")
        return ScenarioId(
            "general_two_cat",
            theta=parse_real(params["theta"]),
            phi=parse_real(params.get("phi", "0")),
        )
    if ident.startswith(("n-cat:", "n_cat:")):
        params = parse_pairs(ident.split(":", 1)[1].split(","), ("n",))
        if "n" not in params:
            raise InputError("n-cat scenario needs n=...")
        return ScenarioId("n_cat", n=parse_natural(params["n"], "n"))
    raise InputError(
        f"unknown scenario id {text!r}; "
        "expected single, two-cat, general:theta=..,phi=.., or n-cat:n=.."
    )


def _flag(value: complex) -> str:
    """`=0` or `=1` for a weak value within FLAG_TOL of that number in both parts, else empty."""
    if abs(value.imag) <= FLAG_TOL:
        if abs(value.real) <= FLAG_TOL:
            return "=0"
        if abs(value.real - 1.0) <= FLAG_TOL:
            return "=1"
    return ""


def _scenario(args: argparse.Namespace) -> int:
    from . import scenarios, weakval

    sid = parse_scenario_id(args.scenario_id)
    pair = scenarios.build_pair(sid)
    report = weakval.weak_value_report(pair)
    pattern = scenarios.expected_pattern(sid)
    ok = all(abs(report.entries[key] - want) <= args.tol for key, want in pattern.items())
    ovl = report.overlap
    if args.format == "json":
        payload = {
            "entries": [
                {"photon": p, "kind": k, "arm": a, "re": v.real, "im": v.imag}
                for (k, p, a), v in report.entries.items()
            ],
            "n_photons": pair.n_photons,
            "overlap": {"re": ovl.real, "im": ovl.imag},
            "pattern_match": ok,
        }
        out = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        rows = [(p, k, a, v.real, v.imag, _flag(v)) for (k, p, a), v in report.entries.items()]
        meta = {"overlap_re": ovl.real, "overlap_im": ovl.imag, "tolerance": args.tol,
                "pattern_match": "PASS" if ok else "FAIL"}
        out = _render_rows(("photon", "kind", "arm", "re", "im", "flag"), rows, args.format, meta=meta)
    sys.stdout.write(out)
    return 0 if ok else EXIT_MISMATCH


def _solve(args: argparse.Namespace) -> int:
    from . import solver

    pre, targets = solver.parse_problem_file(args.problem_file)
    post = solver.solve_post(solver.assemble(pre, targets))
    residual = solver.verify(pre, post, targets)
    conv = post.convention
    rows = [
        (conv.label_of_index(index), amp.real, amp.imag)
        for index, amp in sorted(post.amplitudes.items())
    ]
    sys.stdout.write(_render_rows(("label", "re", "im"), rows, args.format, meta={"residual": residual}))
    return 0 if residual < args.tol else EXIT_MISMATCH


def _circuit(args: argparse.Namespace) -> int:
    from . import optics

    circ = optics.parse_circuit_file(args.circuit_file)
    if args.emit == "counts":
        seed = args.seed_override if args.seed_override is not None else args.seed
        record = optics.run_monte_carlo(circ, args.shots, seed)
        rows = sorted(record.counts.items())
        meta = {"shots": args.shots, "seed": seed}
        out = _render_rows(("pattern", "count"), rows, args.format, meta=meta)
    elif args.emit == "probs":
        result = optics.run_exact(circ)
        rows = list(result.probabilities().items())
        out = _render_rows(("pattern", "probability"), rows, args.format)
    else:
        result = optics.run_exact(circ)
        chosen = args.pattern if args.pattern is not None else result.success_pattern
        state = result.conditional(chosen)
        rows = [
            (";".join(f"{mode},{pol}" for mode, pol in config), amp.real, amp.imag)
            for config, amp in sorted(state.items())
        ]
        meta = {"pattern": chosen, "probability": result.probability(chosen)}
        out = _render_rows(("config", "re", "im"), rows, args.format, meta=meta)
    sys.stdout.write(out)
    return 0


def _pointer(args: argparse.Namespace) -> int:
    from . import scenarios, weakval

    sid = parse_scenario_id(args.scenario_id)
    pair = scenarios.build_pair(sid)
    obs = weakval.observable_from_descriptor(pair.convention, args.descriptor)
    w = weakval.weak_value(obs, pair)
    configs = [
        weakval.PointerConfig(g=parse_real(tok), sigma_p=args.sigma_p) for tok in args.g.split(",") if tok.strip()
    ]
    couplings = [cfg.g for cfg in configs]
    if len(set(couplings)) < 2:
        raise InputError("--g needs at least two distinct couplings to test convergence")
    rows = []
    deviations = []
    for cfg in configs:
        mean_x, _ = weakval.pointer_shift(obs, pair, cfg)
        ratio = mean_x / cfg.g
        deviation = abs(ratio - w.real)
        rows.append((cfg.g, ratio, deviation))
        deviations.append(deviation)
    ok = True
    for (g_prev, g_next, d_prev, d_next) in zip(
        couplings, couplings[1:], deviations, deviations[1:]
    ):
        bound = d_prev * (g_next / g_prev) ** 2 * _QUAD_SLACK + 1e-12
        if d_next > bound and d_next > _DEV_FLOOR:
            ok = False
    meta = {"re_weak_value": w.real, "convergence": "PASS" if ok else "FAIL"}
    sys.stdout.write(_render_rows(("g", "shift_over_g", "deviation"), rows, args.format, meta=meta))
    return 0 if ok else EXIT_MISMATCH


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cheshire",
        description="Weak values and post-selected photon-pair simulations.",
        allow_abbrev=False,
    )
    parser.add_argument(
        "--format", choices=("table", "csv", "json"), default="table", help="output rendering (default: table)"
    )
    parser.add_argument("--seed", type=int, default=7, help="Monte Carlo seed (default: 7)")
    parser.add_argument("--tol", type=float, default=1e-10, help="match tolerance (default: 1e-10)")
    commands = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)

    def command(
        name: str, run: Callable[[argparse.Namespace], int], summary: str, details: str = ""
    ) -> argparse.ArgumentParser:
        sub = commands.add_parser(
            name, help=summary, description=f"{summary} {details}".strip(), allow_abbrev=False
        )
        sub.set_defaults(run=run)
        return sub

    scenario = command(
        "scenario", _scenario, "Weak-value report for SCENARIO_ID, checked against its expected pattern."
    )
    scenario.add_argument("scenario_id", metavar="SCENARIO_ID")

    solve = command("solve", _solve, "Synthesize a post-selection state from the targets in PROBLEM_FILE.")
    solve.add_argument("problem_file", metavar="PROBLEM_FILE")

    circuit = command("circuit", _circuit, "Run the interferometer described by CIRCUIT_FILE.")
    circuit.add_argument("circuit_file", metavar="CIRCUIT_FILE")
    circuit.add_argument("--shots", type=int, help="Monte Carlo shot count (counts mode)")
    circuit.add_argument("--seed", dest="seed_override", type=int, help="override the global seed")
    circuit.add_argument(
        "--emit",
        choices=("counts", "probs", "conditional-state"),
        default="probs",
        help="what to print (default: probs)",
    )
    circuit.add_argument(
        "--pattern", help="coincidence pattern for conditional-state (default: the success pattern)"
    )

    pointer = command(
        "pointer",
        _pointer,
        "Pointer-shift convergence of DESCRIPTOR's weak value on SCENARIO_ID.",
        "Simulates the weakly coupled pointer at each coupling g and tabulates shift/g against "
        "the real part of the weak value; exits 0 when the deviation shrinks at least "
        "quadratically along the schedule.",
    )
    pointer.add_argument("scenario_id", metavar="SCENARIO_ID")
    pointer.add_argument("descriptor", metavar="DESCRIPTOR")
    pointer.add_argument(
        "--g", default="1e-2,5e-3,2.5e-3", help="comma-separated coupling schedule (default: %(default)s)"
    )
    pointer.add_argument(
        "--sigma-p", type=float, default=0.5, help="pointer momentum spread (default: 0.5)"
    )
    return parser


def _usage_error(args: argparse.Namespace) -> str | None:
    """The first option combination the parser cannot refuse by itself, or None."""
    if not 0 < args.tol < math.inf:
        return "--tol must be finite and positive"
    if args.command != "circuit":
        return None
    shots, emit = args.shots, args.emit
    if shots is not None and shots < 1:
        return "--shots must be a positive integer"
    if emit == "counts" and shots is None:
        return "--emit counts needs --shots"
    if shots is not None and emit != "counts":
        return "--shots needs --emit counts"
    if args.pattern is not None and emit != "conditional-state":
        return "--pattern needs --emit conditional-state"
    if args.seed_override is not None and emit != "counts":
        return "--seed needs --emit counts"
    return None


def main(argv: Sequence[str] | None = None) -> NoReturn:
    """Run one command line; always ends in SystemExit with the exit code."""
    parser = _parser()
    args = parser.parse_args(argv)
    problem = _usage_error(args)
    if problem:
        parser.error(problem)
    _execute(lambda: args.run(args))


if __name__ == "__main__":
    main()
