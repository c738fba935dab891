"""Command-line interface.

Subcommands: scenario (weak-value report checked against the expected
delta pattern), solve (post-selection synthesis from a problem file),
circuit (exact or Monte Carlo interferometer runs), pointer (weak-coupling
convergence table). Global flags --format {table,csv,json}, --seed
(default 7), --tol (default 1e-10).

Exit codes, stable for scripting:
    0  success / report matches
    1  computed result does not match the expected pattern or tolerance
    2  usage errors, malformed input files (with line numbers)
    3  degenerate or infeasible configurations (boundary scenario
       parameters, unsatisfiable targets, vanishing overlap)
    4  missing or unreadable files

All commands are deterministic: identical argv, files, and seed produce
byte-identical stdout.
"""

from __future__ import annotations

import json
import math
from typing import Callable, Sequence

import click

from . import optics, scenarios, solver, weakval
from .errors import (
    AnomalousSelectionError,
    CalibrationError,
    CheshireError,
    DegenerateScenarioError,
    InfeasibleTargetsError,
    InputError,
    VacuousSelectionError,
)
from .expr import parse_real

EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_DEGENERATE = 3
EXIT_IO = 4

_QUAD_SLACK = 8.0 / 7.0  # per-halving factor 4 / slack = 3.5
_DEV_FLOOR = 1e-9


def _g(value: float) -> str:
    return "%.12g" % value


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
        lines = [",".join(headers)]
        lines.extend(",".join(row) for row in cells)
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


def _execute(action: Callable[[], int]) -> None:
    try:
        code = action()
    except (CheshireError, OSError) as exc:
        message = f"error: {exc}"
        if isinstance(exc, AnomalousSelectionError):
            message += f" (raw overlap {exc.overlap!r})"
        click.echo(message, err=True)
        raise SystemExit(next(c for kinds, c in _EXIT_CODES if isinstance(exc, kinds))) from None
    raise SystemExit(code)


def _parse_params(text: str, aliases: dict[str, str]) -> dict[str, str]:
    params: dict[str, str] = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise InputError(f"expected key=value in scenario parameters, got {chunk!r}")
        key, value = chunk.split("=", 1)
        key = aliases.get(key.strip(), key.strip())
        if key not in aliases.values():
            raise InputError(f"unknown scenario parameter {key!r}")
        if key in params:
            raise InputError(f"duplicate scenario parameter {key!r}")
        params[key] = value.strip()
    return params


def parse_scenario_id(text: str) -> scenarios.ScenarioId:
    """Parse `single`, `two-cat`, `general:theta=..,phi=..`, `n-cat:n=..`.

    Greek spellings of the angle names are accepted; angle values are
    arithmetic expressions (pi/4, 3*pi/8, ...).
    """
    ident = text.strip()
    if ident == "single":
        return scenarios.ScenarioId("single")
    if ident in ("two-cat", "two_cat"):
        return scenarios.ScenarioId("two_cat")
    if ident.startswith(("general:",)):
        params = _parse_params(
            ident.split(":", 1)[1],
            {"theta": "theta", "θ": "theta", "phi": "phi", "φ": "phi"},
        )
        if "theta" not in params:
            raise InputError("general scenario needs theta=... (or θ=...)")
        return scenarios.ScenarioId(
            "general_two_cat",
            theta=parse_real(params["theta"]),
            phi=parse_real(params.get("phi", "0")),
        )
    if ident.startswith(("n-cat:", "n_cat:")):
        params = _parse_params(ident.split(":", 1)[1], {"n": "n"})
        if "n" not in params:
            raise InputError("n-cat scenario needs n=...")
        try:
            n = int(params["n"])
        except ValueError:
            raise InputError(f"n must be an integer, got {params['n']!r}") from None
        return scenarios.ScenarioId("n_cat", n=n)
    raise InputError(
        f"unknown scenario id {text!r}; "
        "expected single, two-cat, general:theta=..,phi=.., or n-cat:n=.."
    )


@click.group(context_settings={"help_option_names": ["-h", "--help"]})
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["table", "csv", "json"]),
    default="table",
    show_default=True,
    help="output rendering",
)
@click.option("--seed", type=int, default=7, show_default=True, help="Monte Carlo seed")
@click.option("--tol", type=float, default=1e-10, show_default=True, help="match tolerance")
@click.pass_context
def main(ctx: click.Context, fmt: str, seed: int, tol: float) -> None:
    """Weak values and post-selected photon-pair simulations."""
    if not 0 < tol < math.inf:
        raise click.UsageError("--tol must be finite and positive")
    ctx.obj = {"format": fmt, "seed": seed, "tol": tol}


@main.command()
@click.argument("scenario_id")
@click.pass_context
def scenario(ctx: click.Context, scenario_id: str) -> None:
    """Weak-value report for SCENARIO_ID, checked against its expected pattern."""

    def action() -> int:
        sid = parse_scenario_id(scenario_id)
        pair = scenarios.build_pair(sid)
        report = weakval.weak_value_report(pair)
        pattern = scenarios.expected_pattern(sid)
        tol = ctx.obj["tol"]
        ok = all(abs(report.entries[key] - want) <= tol for key, want in pattern.items())
        verdict = "PASS" if ok else "FAIL"
        fmt = ctx.obj["format"]
        if fmt == "table":
            out = report.to_table() + f"pattern match: {verdict} (tolerance {_g(tol)})\n"
        elif fmt == "csv":
            out = report.to_csv() + f",pattern_match,,{verdict},\n"
        else:
            payload = json.loads(report.to_json_text())
            payload["pattern_match"] = ok
            out = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        click.echo(out, nl=False)
        return 0 if ok else EXIT_MISMATCH

    _execute(action)


@main.command()
@click.argument("problem_file")
@click.pass_context
def solve(ctx: click.Context, problem_file: str) -> None:
    """Synthesize a post-selection state from the targets in PROBLEM_FILE."""

    def action() -> int:
        pre, targets = solver.parse_problem_file(problem_file)
        post = solver.solve_post(solver.assemble(pre, targets))
        residual = solver.verify(pre, post, targets)
        conv = post.convention
        rows = [
            (conv.label_of_index(index), amp.real, amp.imag)
            for index, amp in sorted(post.amplitudes.items())
        ]
        out = _render_rows(
            ("label", "re", "im"),
            rows,
            ctx.obj["format"],
            meta={"residual": residual},
        )
        click.echo(out, nl=False)
        return 0 if residual < ctx.obj["tol"] else EXIT_MISMATCH

    _execute(action)


@main.command()
@click.argument("circuit_file")
@click.option("--shots", type=int, default=None, help="Monte Carlo shot count (counts mode)")
@click.option("--seed", "seed_override", type=int, default=None, help="override the global seed")
@click.option(
    "--emit",
    type=click.Choice(["counts", "probs", "conditional-state"]),
    default="probs",
    show_default=True,
    help="what to print",
)
@click.option(
    "--pattern",
    default=None,
    help="coincidence pattern for conditional-state (default: the success pattern)",
)
@click.pass_context
def circuit(
    ctx: click.Context,
    circuit_file: str,
    shots: int | None,
    seed_override: int | None,
    emit: str,
    pattern: str | None,
) -> None:
    """Run the interferometer described by CIRCUIT_FILE."""
    if shots is not None and shots < 1:
        raise click.UsageError("--shots must be a positive integer")

    def action() -> int:
        circ = optics.parse_circuit_file(circuit_file)
        fmt = ctx.obj["format"]
        if emit == "counts":
            if shots is None:
                raise click.UsageError("--emit counts needs --shots")
            seed = seed_override if seed_override is not None else ctx.obj["seed"]
            record = optics.run_monte_carlo(circ, shots, seed)
            rows = sorted(record.counts.items())
            out = _render_rows(
                ("pattern", "count"), rows, fmt, meta={"shots": shots, "seed": seed}
            )
        elif emit == "probs":
            result = optics.run_exact(circ)
            rows = list(result.probabilities().items())
            out = _render_rows(("pattern", "probability"), rows, fmt)
        else:
            result = optics.run_exact(circ)
            chosen = pattern if pattern is not None else result.success_pattern
            state = result.conditional(chosen)
            rows = [
                (";".join(f"{mode},{pol}" for mode, pol in config), amp.real, amp.imag)
                for config, amp in sorted(state.items())
            ]
            out = _render_rows(
                ("config", "re", "im"),
                rows,
                fmt,
                meta={"pattern": chosen, "probability": result.probability(chosen)},
            )
        click.echo(out, nl=False)
        return 0

    _execute(action)


@main.command()
@click.argument("scenario_id")
@click.argument("descriptor")
@click.option(
    "--g",
    "g_text",
    default="1e-2,5e-3,2.5e-3",
    show_default=True,
    help="comma-separated coupling schedule",
)
@click.option("--sigma-p", type=float, default=0.5, show_default=True, help="pointer momentum spread")
@click.pass_context
def pointer(ctx: click.Context, scenario_id: str, descriptor: str, g_text: str, sigma_p: float) -> None:
    """Pointer-shift convergence of DESCRIPTOR's weak value on SCENARIO_ID.

    Simulates the weakly coupled pointer at each coupling g and tabulates
    shift/g against the real part of the weak value; exits 0 when the
    deviation shrinks at least quadratically along the schedule.
    """

    def action() -> int:
        sid = parse_scenario_id(scenario_id)
        pair = scenarios.build_pair(sid)
        obs = weakval.observable_from_descriptor(pair.convention, descriptor)
        w = weakval.weak_value(obs, pair)
        couplings = [parse_real(tok) for tok in g_text.split(",") if tok.strip()]
        if any(g <= 0 for g in couplings):
            raise InputError("couplings must be positive")
        if len(set(couplings)) < 2:
            raise InputError("--g needs at least two distinct couplings to test convergence")
        rows = []
        deviations = []
        for g in couplings:
            cfg = weakval.PointerConfig(g=g, sigma_p=sigma_p)
            mean_x, _ = weakval.pointer_shift(obs, pair, cfg)
            ratio = mean_x / g
            deviation = abs(ratio - w.real)
            rows.append((g, ratio, deviation))
            deviations.append(deviation)
        ok = True
        for (g_prev, g_next, d_prev, d_next) in zip(
            couplings, couplings[1:], deviations, deviations[1:]
        ):
            bound = d_prev * (g_next / g_prev) ** 2 * _QUAD_SLACK + 1e-12
            if d_next > bound and d_next > _DEV_FLOOR:
                ok = False
        out = _render_rows(
            ("g", "shift_over_g", "deviation"),
            rows,
            ctx.obj["format"],
            meta={"re_weak_value": w.real, "convergence": "PASS" if ok else "FAIL"},
        )
        click.echo(out, nl=False)
        return 0 if ok else EXIT_MISMATCH

    _execute(action)


if __name__ == "__main__":
    main()
