"""Command-line surface: subcommands, output formats, exit codes, determinism.

Exit-code contract: 0 success, 1 pattern or convergence mismatch, 2 usage
and malformed input, 3 degenerate/infeasible/vacuous/anomalous/calibration,
4 unreadable files. Repeated invocations with the same arguments and seed
must produce byte-identical stdout.
"""

import json
import math
import subprocess
import sys

import pytest
from click.testing import CliRunner

import cheshire as ch
from cheshire import optics
from cheshire.cli import _execute, main, parse_scenario_id

runner = CliRunner()

GOOD_PROBLEM = """\
photons 2
pre 0100 1/sqrt(2) 0
pre 1000 1/sqrt(2) 0
target path:1:L 1 0
target path:1:R 0 0
target grin:1:L 0 0
target grin:1:R 1 0
target path:2:L 0 0
target path:2:R 1 0
target grin:2:L 1 0
target grin:2:R 0 0
"""

VACUOUS_PROBLEM = """\
photons 1
pre 00 1 0
pre 10 1 0
target path:1:L 1 0
target path:1:L 0 0
"""


def run_cli(*args):
    return runner.invoke(main, list(args))


# ---------------------------------------------------------------------------
# scenario


def test_scenario_table_two_cat():
    result = run_cli("scenario", "two-cat")
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert lines[0].startswith("photon")
    assert "pattern match: PASS (tolerance 1e-10)" in result.output
    assert any(line.endswith("=1") for line in lines)
    assert any(line.endswith("=0") for line in lines)


def test_scenario_json_single():
    result = run_cli("--format", "json", "scenario", "single")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["pattern_match"] is True
    assert payload["n_photons"] == 1
    assert len(payload["entries"]) == 4
    assert payload["overlap"]["im"] == pytest.approx(0.5)


def test_scenario_csv_two_cat():
    result = run_cli("--format", "csv", "scenario", "two-cat")
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert lines[0] == "photon,kind,arm,re,im"
    assert lines[-1] == ",pattern_match,,PASS,"
    assert len(lines) == 11  # header + 8 rows + overlap + verdict


def test_scenario_ncat_row_count():
    result = run_cli("--format", "json", "scenario", "n-cat:n=5")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert len(payload["entries"]) == 20
    assert payload["overlap"]["im"] == pytest.approx(1 / math.sqrt(12))


@pytest.mark.parametrize(
    "sid",
    ["general:theta=pi/4,phi=0", "general:θ=pi/4,φ=0", "two_cat", "n_cat:n=3"],
)
def test_scenario_id_spellings(sid):
    assert run_cli("scenario", sid).exit_code == 0


def test_scenario_mismatch_exits_one():
    result = run_cli("--tol", "1e-300", "scenario", "general:theta=0.3,phi=0.7")
    assert result.exit_code == 1
    assert "pattern match: FAIL" in result.output


def test_scenario_degenerate_angle_exits_three():
    result = run_cli("scenario", "general:theta=0")
    assert result.exit_code == 3
    assert "error:" in result.stderr


@pytest.mark.parametrize(
    "sid", ["bogus", "general:theta=pi/4,phi=0,theta=1", "general:phi=0", "n-cat:n=x"]
)
def test_scenario_bad_ids_exit_two(sid):
    assert run_cli("scenario", sid).exit_code == 2


def test_parse_scenario_id_defaults():
    sid = parse_scenario_id("general:theta=pi/8")
    assert sid.kind == "general_two_cat"
    assert sid.theta == pytest.approx(math.pi / 8)
    assert sid.phi == 0.0


def test_tolerance_must_be_positive():
    result = run_cli("--tol", "0", "scenario", "two-cat")
    assert result.exit_code == 2


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_tolerance_must_be_finite(tol):
    """nan would fail every comparison and inf would pass any result."""
    result = run_cli("--tol", tol, "scenario", "two-cat")
    assert result.exit_code == 2
    assert "--tol must be finite and positive" in result.stderr


def test_unknown_format_rejected():
    assert run_cli("--format", "yaml", "scenario", "two-cat").exit_code == 2


# ---------------------------------------------------------------------------
# solve


def test_solve_two_cat_problem(tmp_path):
    path = tmp_path / "deltas.problem"
    path.write_text(GOOD_PROBLEM)
    result = run_cli("--format", "json", "solve", str(path))
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["residual"] < 1e-10
    rows = {row["label"]: (row["re"], row["im"]) for row in payload["rows"]}
    assert set(rows) == {"0100", "1001", "1010"}  # LRHH, RLHV, RLVH
    assert rows["0100"] == (pytest.approx(0.0, abs=1e-12), pytest.approx(-1.0))
    assert rows["1001"] == (pytest.approx(1.0), pytest.approx(0.0, abs=1e-12))
    assert rows["1010"] == (pytest.approx(1.0), pytest.approx(0.0, abs=1e-12))


def delta_problem_text(n):
    """Problem file for the n-photon delta pattern on the n-cat pre-state."""
    lines = [f"photons {n}"]
    lines += [
        f"pre {k:0{2 * n}b} {a.real!r} {a.imag!r}"
        for k, a in sorted(ch.n_cat(n).pre.amplitudes.items())
    ]
    pattern = ch.expected_pattern(ch.ScenarioId("n_cat", n=n))
    lines += [f"target {kind}:{photon}:{arm} {value} 0" for (kind, photon, arm), value in pattern.items()]
    return "\n".join(lines) + "\n"


def test_solve_beyond_dense_dimensions(tmp_path):
    path = tmp_path / "deltas7.problem"
    path.write_text(delta_problem_text(7))
    result = run_cli("--format", "json", "solve", str(path))
    assert result.exit_code == 0, result.stderr
    assert json.loads(result.output)["residual"] < 1e-10


def test_solve_table_reports_residual(tmp_path):
    path = tmp_path / "deltas.problem"
    path.write_text(GOOD_PROBLEM)
    result = run_cli("solve", str(path))
    assert result.exit_code == 0
    assert result.output.splitlines()[0].startswith("label")
    assert "# residual" in result.output


def test_solve_vacuous_targets_exit_three(tmp_path):
    path = tmp_path / "vacuous.problem"
    path.write_text(VACUOUS_PROBLEM)
    result = run_cli("solve", str(path))
    assert result.exit_code == 3
    assert "error:" in result.stderr


def test_solve_malformed_file_exits_two(tmp_path):
    path = tmp_path / "broken.problem"
    path.write_text("photons 2\npre 0100 oops 0\n")
    result = run_cli("solve", str(path))
    assert result.exit_code == 2
    assert "line 2" in result.stderr


def test_solve_overflowing_expression_exits_two(tmp_path):
    path = tmp_path / "overflow.problem"
    path.write_text("photons 1\npre 00 exp(1000) 0\ntarget path:1:L 1 0\n")
    result = run_cli("solve", str(path))
    assert result.exit_code == 2
    assert "line 2" in result.stderr


def test_solve_missing_file_exits_four(tmp_path):
    result = run_cli("solve", str(tmp_path / "absent.problem"))
    assert result.exit_code == 4


# ---------------------------------------------------------------------------
# circuit


def builtin():
    return str(optics.builtin_circuit_path())


def test_circuit_probabilities_table():
    result = run_cli("circuit", builtin())
    assert result.exit_code == 0
    assert result.output.splitlines()[0].startswith("pattern")
    assert "0.166666666667" in result.output  # 12 significant digits of 1/6
    assert "0.3125" in result.output


def test_circuit_probabilities_json():
    result = run_cli("--format", "json", "circuit", builtin())
    payload = json.loads(result.output)
    probs = {row["pattern"]: row["probability"] for row in payload["rows"]}
    assert probs["D5"] == pytest.approx(1 / 6, abs=1e-12)
    assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)
    assert len(probs) == 5


def test_circuit_counts_sum_to_shots():
    result = run_cli("--format", "json", "circuit", builtin(), "--emit", "counts", "--shots", "6000")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["shots"] == 6000
    assert payload["seed"] == 7
    assert sum(row["count"] for row in payload["rows"]) == 6000


def test_circuit_seed_spellings_agree():
    a = run_cli("--seed", "5", "circuit", builtin(), "--emit", "counts", "--shots", "3000")
    b = run_cli("circuit", builtin(), "--emit", "counts", "--shots", "3000", "--seed", "5")
    assert a.exit_code == b.exit_code == 0
    assert a.output == b.output


def test_circuit_counts_need_shots():
    result = run_cli("circuit", builtin(), "--emit", "counts")
    assert result.exit_code == 2


def test_circuit_zero_shots_rejected():
    result = run_cli("circuit", builtin(), "--emit", "counts", "--shots", "0")
    assert result.exit_code == 2


def test_circuit_conditional_state_default_pattern():
    result = run_cli("--format", "json", "circuit", builtin(), "--emit", "conditional-state")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["pattern"] == "D5"
    assert payload["probability"] == pytest.approx(1 / 6, abs=1e-12)
    assert len(payload["rows"]) == 1
    row = payload["rows"][0]
    assert row["config"] == "R,H;L,H"
    assert math.hypot(row["re"], row["im"]) == pytest.approx(1.0, abs=1e-12)


def test_circuit_conditional_state_named_pattern():
    result = run_cli("--format", "json", "circuit", builtin(), "--emit", "conditional-state", "--pattern", "D1")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["pattern"] == "D1"
    assert payload["probability"] == pytest.approx(5 / 16, abs=1e-12)
    total = sum(row["re"] ** 2 + row["im"] ** 2 for row in payload["rows"])
    assert total == pytest.approx(1.0, abs=1e-12)


def test_circuit_unknown_pattern_exits_two():
    result = run_cli("circuit", builtin(), "--emit", "conditional-state", "--pattern", "D9")
    assert result.exit_code == 2


def test_circuit_malformed_file_exits_two(tmp_path):
    path = tmp_path / "bad.circuit"
    path.write_text("photons 2\nsource laser\n")
    result = run_cli("circuit", str(path))
    assert result.exit_code == 2
    assert "line 2" in result.stderr


def test_circuit_missing_file_exits_four(tmp_path):
    result = run_cli("circuit", str(tmp_path / "absent.circuit"))
    assert result.exit_code == 4


# ---------------------------------------------------------------------------
# pointer


def test_pointer_identity_observable():
    result = run_cli("--format", "json", "pointer", "two-cat", "id")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["re_weak_value"] == pytest.approx(1.0)
    assert payload["convergence"] == "PASS"
    for row in payload["rows"]:
        assert row["shift_over_g"] == pytest.approx(1.0, abs=1e-9)


def test_pointer_grin_quadratic_convergence():
    result = run_cli("--format", "json", "pointer", "two-cat", "grin:1:R")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["re_weak_value"] == pytest.approx(1.0)
    assert payload["convergence"] == "PASS"
    devs = [row["deviation"] for row in payload["rows"]]
    assert devs[0] > devs[1] > devs[2]
    assert devs[1] == pytest.approx(devs[0] / 4, rel=1e-3)


def test_pointer_table_output():
    result = run_cli("pointer", "two-cat", "path:2:R", "--g", "1e-2,5e-3")
    assert result.exit_code == 0
    assert result.output.splitlines()[0].startswith("g")
    assert "# convergence PASS" in result.output


@pytest.mark.parametrize("g_text", ["", "-1e-2", "0", "1e3", "1e-2,1e-2"])
def test_pointer_bad_schedule_exits_two(g_text):
    result = run_cli("pointer", "two-cat", "grin:1:R", "--g", g_text)
    assert result.exit_code == 2


@pytest.mark.parametrize("sigma_p", ["nan", "inf"])
def test_pointer_non_finite_spread_exits_two(sigma_p):
    result = run_cli("pointer", "two-cat", "path:1:L", "--sigma-p", sigma_p)
    assert result.exit_code == 2
    assert "sigma_p must be finite and positive" in result.stderr


def test_pointer_underflowing_position_width_exits_two():
    """sigma_x = 1/(2 sigma_p) is finite, but its square underflows to 0."""
    result = run_cli("pointer", "two-cat", "path:1:L", "--sigma-p", "1e300")
    assert result.exit_code == 2
    assert "pointer grid too coarse or narrow" in result.stderr


def test_pointer_bad_descriptor_exits_two():
    result = run_cli("pointer", "two-cat", "spin:1:L")
    assert result.exit_code == 2


@pytest.mark.parametrize("scenario_id,descriptor", [("n-cat:n=6", "grin:1:R"), ("n-cat:n=10", "sigma:3")])
def test_pointer_beyond_dense_dimensions(scenario_id, descriptor):
    """dim 4**6 and 4**10: the readout works on the pre-state's Krylov space."""
    result = run_cli("pointer", scenario_id, descriptor)
    assert result.exit_code == 0
    assert "# convergence PASS" in result.output


# ---------------------------------------------------------------------------
# determinism across processes


def spawn(*args):
    return subprocess.run(
        [sys.executable, "-m", "cheshire.cli", *args],
        capture_output=True,
        timeout=120,
    )


def test_repeated_runs_are_byte_identical():
    args = ("--format", "json", "circuit", builtin(), "--emit", "counts", "--shots", "8192")
    first = spawn(*args)
    second = spawn(*args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout  # non-empty


# ---------------------------------------------------------------------------
# exit-code mapping


EXIT_CASES = [
    (
        ch.AnomalousSelectionError("overlap vanishes", overlap=1e-13j),
        3,
        "error: overlap vanishes (raw overlap 1e-13j)\n",
    ),
    (ch.CalibrationError("residual too large", residual=0.5), 3, "error: residual too large\n"),
    (ch.DegenerateScenarioError("boundary"), 3, "error: boundary\n"),
    (ch.InfeasibleTargetsError("no solution"), 3, "error: no solution\n"),
    (ch.VacuousSelectionError("orthogonal"), 3, "error: orthogonal\n"),
    (ch.FileParseError("bad row", 4), 2, "error: line 4: bad row\n"),
    (ch.InputError("bad input"), 2, "error: bad input\n"),
    (ch.ZeroNormError("zero vector"), 2, "error: zero vector\n"),
    (ch.CircuitConfigError("collision"), 2, "error: collision\n"),
    (ch.CheshireError("other"), 2, "error: other\n"),
    (OSError("unreadable"), 4, "error: unreadable\n"),
]


@pytest.mark.parametrize(
    "error,code,stderr", EXIT_CASES, ids=[type(case[0]).__name__ for case in EXIT_CASES]
)
def test_execute_maps_errors_to_exit_codes(error, code, stderr, capsys):
    def action():
        raise error

    with pytest.raises(SystemExit) as stop:
        _execute(action)
    assert stop.value.code == code
    assert capsys.readouterr().err == stderr
