"""Command-line surface: subcommands, output formats, exit codes, determinism.

Exit-code contract: 0 success, 1 pattern or convergence mismatch, 2 usage
and malformed input, 3 degenerate/infeasible/vacuous/anomalous/calibration,
4 unreadable files. Repeated invocations with the same arguments and seed
must produce byte-identical stdout.
"""

import csv
import io
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import cheshire as ch
from cheshire import optics
from cheshire.cli import _execute, _render_rows, parse_scenario_id
from conftest import run_cli

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


# ---------------------------------------------------------------------------
# scenario


def test_scenario_table_two_cat():
    result = run_cli("scenario", "two-cat")
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert lines[0].split() == ["photon", "kind", "arm", "re", "im", "flag"]
    assert lines[1].split() == ["1", "path", "L", "1", "0", "=1"]
    assert lines[2].split() == ["1", "path", "R", "0", "0", "=0"]
    assert lines[9:] == [
        "# overlap_re 0", "# overlap_im 0.408248290464", "# tolerance 1e-10", "# pattern_match PASS",
    ]


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
    assert lines[0] == "photon,kind,arm,re,im,flag"
    assert lines[1] == "1,path,L,1,0,=1"
    assert lines[-1] == "# pattern_match PASS"
    assert len(lines) == 13  # header + 8 rows + overlap_re, overlap_im, tolerance, verdict


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
    assert result.output.splitlines()[-2:] == ["# tolerance 1e-300", "# pattern_match FAIL"]


def test_scenario_degenerate_angle_exits_three():
    result = run_cli("scenario", "general:theta=0")
    assert result.exit_code == 3
    assert "error:" in result.stderr


BAD_SCENARIO_IDS = {
    "bogus": "unknown scenario id 'bogus'",
    "general:theta=pi/4,phi=0,theta=1": "duplicate key 'theta'",
    "general:phi=0": "general scenario needs theta=...",
    "n-cat:n=x": "n must be a whole number in ASCII digits, got 'x'",
    "n-cat:n=\u0661\u0662": "n must be a whole number in ASCII digits, got '\u0661\u0662'",
    "n-cat:n=+3": "n must be a whole number in ASCII digits, got '+3'",
    "n-cat:n=0_3": "n must be a whole number in ASCII digits, got '0_3'",
    "n-cat:n= 3x": "n must be a whole number in ASCII digits, got '3x'",
    "n-cat:": "n-cat scenario needs n=...",
}


@pytest.mark.parametrize("sid,message", BAD_SCENARIO_IDS.items(), ids=list(BAD_SCENARIO_IDS))
def test_scenario_bad_ids_exit_two(sid, message):
    result = run_cli("scenario", sid)
    assert result.exit_code == 2
    assert result.stderr.startswith(f"error: {message}")


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


@pytest.mark.parametrize(
    "args,code",
    [
        (("--form", "csv", "scenario", "two-cat"), 2),  # no abbreviated options
        ((), 2),
        (("scenario",), 2),
        (("scenario", "two-cat", "extra"), 2),
        (("bogus",), 2),
        (("--format",), 2),
        (("--help",), 0),
        (("scenario", "-h"), 0),
        (("solve", "-h"), 0),
        (("circuit", "-h"), 0),
        (("pointer", "-h"), 0),
        (("--seed", "3", "--seed", "4", "scenario", "two-cat"), 0),  # the last value wins
    ],
)
def test_usage_exit_codes(args, code):
    assert run_cli(*args).exit_code == code


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


@pytest.mark.parametrize(
    "text,line,message",
    [
        ("photons 2\npre 0100 oops 0\n", 2, "cannot evaluate 'oops' in expression 'oops'"),
        ("photons ²\n", 1, "photons must be a whole number in ASCII digits, got '²'"),
        ("photons 1\npre 00 1 0\ntarget path:1:L 1\n", 3, "target rows are: target DESCRIPTOR RE IM"),
        ("target path:1:L 1 0\ntarget path:1:R 0 0\n", 1, "missing photons line"),
        # abs() of the amplitude itself overflows, before its square is summed
        ("photons 1\npre 00 1.7e308 1.7e308\ntarget path:1:L 1 0\n", 2, "amplitudes too large: the squared norm overflows"),
    ],
    ids=["bad-amplitude", "superscript-photons", "three-word-target", "targets-without-photons", "amplitude-modulus-overflow"],
)
def test_solve_malformed_file_exits_two(tmp_path, text, line, message):
    path = tmp_path / "broken.problem"
    path.write_text(text, encoding="utf-8")
    result = run_cli("solve", str(path))
    assert result.exit_code == 2
    assert result.stderr == f"error: line {line}: {message}\n"


def test_solve_overflowing_expression_exits_two(tmp_path):
    path = tmp_path / "overflow.problem"
    path.write_text("photons 1\npre 00 exp(1000) 0\ntarget path:1:L 1 0\n")
    result = run_cli("solve", str(path))
    assert result.exit_code == 2
    assert "line 2" in result.stderr


@pytest.mark.parametrize("pre_rows", ["pre 00 1e200 0\n", "pre 00 1e154 0\npre 01 1e154 0\n"])
def test_solve_overflowing_norm_exits_two(tmp_path, pre_rows):
    """Finite amplitudes whose squared norm overflows are bad input, not a crash or an answer;
    the error names the last pre row, where the sum is complete."""
    path = tmp_path / "huge.problem"
    path.write_text("photons 1\n" + pre_rows + "target path:1:L 1 0\n")
    result = run_cli("solve", str(path))
    assert result.exit_code == 2
    assert "squared norm overflows" in result.stderr
    assert result.stderr.startswith(f"error: line {1 + pre_rows.count('pre')}: ")


def test_solve_zero_pre_state_names_its_row(tmp_path):
    path = tmp_path / "zero.problem"
    path.write_text("photons 1\npre 00 0 0\ntarget path:1:L 1 0\n")
    result = run_cli("solve", str(path))
    assert result.exit_code == 2
    assert result.stderr == "error: line 2: pre-state is the zero vector\n"


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


@pytest.mark.parametrize(
    "options,message",
    [
        (("--emit", "probs", "--shots", "5"), "--shots needs --emit counts"),
        (("--emit", "conditional-state", "--shots", "5"), "--shots needs --emit counts"),
        (("--emit", "probs", "--pattern", "D5"), "--pattern needs --emit conditional-state"),
        (("--emit", "counts", "--shots", "5", "--pattern", "D5"), "--pattern needs --emit conditional-state"),
        (("--seed", "5"), "--seed needs --emit counts"),
        (("--emit", "conditional-state", "--seed", "5"), "--seed needs --emit counts"),
    ],
)
def test_circuit_options_for_another_emit_rejected(tmp_path, options, message):
    """Checked before the file is read: a missing file still exits 2, not 4."""
    for path in (builtin(), str(tmp_path / "absent.circuit")):
        result = run_cli("circuit", path, *options)
        assert result.exit_code == 2
        assert message in result.stderr


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


@pytest.mark.parametrize(
    "text,line,message",
    [
        ("photons 2\nsource laser\n", 2, "source kind must be spdc or ket, got 'laser'"),
        ("photons ²\n", 1, "photons must be a whole number in ASCII digits, got '²'"),
        ("# a comment and nothing else\n", 1, "missing photons line"),
        ("photons 2 3\n", 1, "photons needs one positive integer"),
    ],
    ids=["bad-source", "superscript-photons", "no-directive", "photons-two-words"],
)
def test_circuit_malformed_file_exits_two(tmp_path, text, line, message):
    path = tmp_path / "bad.circuit"
    path.write_text(text, encoding="utf-8")
    result = run_cli("circuit", str(path))
    assert result.exit_code == 2
    assert result.stderr == f"error: line {line}: {message}\n"


@pytest.mark.parametrize(
    "extra,message",
    [
        ("detector D9 photon=7 mode=L pol=H", "detector photon 7 is not in 1..2"),
        ("detector D9 photon=0 mode=L pol=H", "detector photon 0 is not in 1..2"),
        ("postselect-on D1", "duplicate postselect-on line"),
        ("detector D7+D8 photon=1 mode=z pol=H", "contains '+'"),
        ("element hwp photon=0 arm=L", "element photon 0 is not in 1..2"),
        ("element pbs photon=1 ports=L,L", "distinct ports"),
        ("element hwp photon=1 arm=L adjustable", "unknown flag 'adjustable'"),
        ("element bs in_a=L,R in_b=R,L t=1 r=0 adjustible", "unknown flag 'adjustible'"),
        ("element pbs photon=1 ports=L,R bogus=3", "unknown key 'bogus'"),
        ("element bs name=BS1 in_a=x1,x2 in_b=y1,y2 t=1 r=0", "duplicate beam splitter name 'BS1'"),
        ("element hwp photon=1 arm=", "empty value for 'arm'"),
        ("detector D9 photon=1 mode= pol=H", "empty value for 'mode'"),
        ("element bs name= in_a=x1,x2 in_b=y1,y2 t=1 r=0", "empty value for 'name'"),
        ("source spdc modes=L,L", "duplicate source line"),
        ("postselection", "duplicate postselection marker"),
        ("detector", "detector needs a label"),
        ("postselect-on D1 D2", "postselect-on needs one detector label"),
        ("beamsplitter BS4", "unknown directive 'beamsplitter'"),
    ],
    ids=["detector-photon-7", "detector-photon-0", "second-postselect-on", "detector-label-plus",
         "element-photon-0", "pbs-same-ports", "plate-flag", "bs-misspelt-flag", "pbs-unknown-key",
         "bs-duplicate-name", "plate-empty-arm", "detector-empty-mode", "bs-empty-name",
         "second-source", "second-postselection-marker", "detector-no-label", "postselect-on-two-labels",
         "unknown-directive"],
)
def test_circuit_bad_extra_line_exits_two(tmp_path, extra, message):
    lines = Path(optics.builtin_circuit_path()).read_text(encoding="utf-8").splitlines()
    path = tmp_path / "extra.circuit"
    path.write_text("\n".join(lines + [extra]) + "\n")
    result = run_cli("circuit", str(path))
    assert result.exit_code == 2
    assert f"line {len(lines) + 1}" in result.stderr
    assert message in result.stderr


def test_circuit_csv_quotes_fields_holding_commas():
    result = run_cli("--format", "csv", "circuit", builtin(), "--emit", "conditional-state")
    assert result.exit_code == 0
    rows = [row for row in csv.reader(io.StringIO(result.output)) if not row[0].startswith("#")]
    assert rows[0] == ["config", "re", "im"]
    assert [row[0] for row in rows[1:]] == ["R,H;L,H"]
    assert all(len(row) == 3 for row in rows)


# The bundled device's exact output, byte for byte. `--emit counts` is left
# out: its values follow the sampler, not the optics.
PINNED_CIRCUIT_OUTPUT = {
    ("probs", "table"): """\
pattern  probability
D1       0.3125
D2+D5    0.125
D4+D5    0.125
D5       0.166666666667
D6       0.270833333333
""",
    ("conditional-state", "csv"): """\
config,re,im
"R,H;L,H",-1,-6.79869977755e-17
# pattern D5
# probability 0.166666666667
""",
    ("conditional-state", "json"): """\
{
  "pattern": "D5",
  "probability": 0.16666666666666657,
  "rows": [
    {
      "config": "R,H;L,H",
      "im": -6.798699777552594e-17,
      "re": -1.0
    }
  ]
}
""",
}


@pytest.mark.parametrize("emit,fmt", list(PINNED_CIRCUIT_OUTPUT))
def test_circuit_output_is_pinned(emit, fmt):
    result = run_cli("--format", fmt, "circuit", builtin(), "--emit", emit)
    assert result.exit_code == 0
    assert result.output == PINNED_CIRCUIT_OUTPUT[(emit, fmt)]


def test_csv_quoting_round_trips_through_csv_reader():
    fields = ("plain", "a,b", 'say "hi"', "two\nlines", "")
    out = _render_rows(("x",) * len(fields), [fields], "csv")
    assert list(csv.reader(io.StringIO(out))) == [["x"] * len(fields), list(fields)]
    assert out.splitlines()[1].startswith('plain,"a,b","say ""hi""","two')


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


@pytest.mark.parametrize("g_option", [("--g=-1e-2,1e-2",), ("--g", "0,1e-2")], ids=["negative", "zero"])
def test_pointer_nonpositive_coupling_exits_two(g_option):
    result = run_cli("pointer", "two-cat", "grin:1:R", *g_option)
    assert result.exit_code == 2
    assert "g must be finite and positive" in result.stderr


def test_pointer_reads_couplings_before_the_scenario():
    """A bad --g is a usage error even when the scenario is degenerate too."""
    result = run_cli("pointer", "general:theta=0", "id", "--g", "0,1e-2")
    assert result.exit_code == 2
    assert "g must be finite and positive" in result.stderr


@pytest.mark.parametrize("sigma_p", ["nan", "inf"])
def test_pointer_non_finite_spread_exits_two(sigma_p):
    result = run_cli("pointer", "two-cat", "path:1:L", "--sigma-p", sigma_p)
    assert result.exit_code == 2
    assert "sigma_p must be finite and positive" in result.stderr


def test_pointer_underflowing_position_width_exits_two():
    """sigma_x = 1/(2 sigma_p) is finite, but its square underflows to 0."""
    result = run_cli("pointer", "two-cat", "path:1:L", "--sigma-p", "1e300")
    assert result.exit_code == 2
    assert "pointer too narrow: sigma_x**2 underflows to 0" in result.stderr


def test_pointer_wide_pointer_converges():
    """sigma_x = 5: a wide pointer still converges quadratically."""
    result = run_cli("--format", "json", "pointer", "two-cat", "grin:1:R", "--sigma-p", "0.1")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["convergence"] == "PASS"
    devs = [row["deviation"] for row in payload["rows"]]
    assert devs[0] / devs[1] == pytest.approx(4.0, rel=1e-3)
    assert devs[1] / devs[2] == pytest.approx(4.0, rel=1e-3)


@pytest.mark.parametrize(
    "options",
    [("--g", "1e200,1e199"), ("--g", "1e200,1e199", "--sigma-p", "1e150"), ("--g", "1.7e308,1e308")],
)
def test_pointer_extreme_couplings_stay_finite(options):
    """g * sigma_p * (lambda - mu) overflows here; the readout must not turn it into nan."""
    proc = spawn("pointer", "two-cat", "grin:1:R", *options)
    assert proc.returncode in (0, 1, 2)
    assert b"Traceback" not in proc.stderr
    assert b"RuntimeWarning" not in proc.stderr
    assert b"nan" not in proc.stdout.lower()


def test_pointer_bad_descriptor_exits_two():
    result = run_cli("pointer", "two-cat", "spin:1:L")
    assert result.exit_code == 2


@pytest.mark.parametrize("descriptor", ["path:+1:L", "grin:\u0661:R", "sigma:0_1"])
def test_pointer_photon_index_in_ascii_digits_only(descriptor):
    result = run_cli("pointer", "two-cat", descriptor)
    assert result.exit_code == 2
    assert "ASCII digits" in result.stderr


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
# no input path ends in a traceback

BAD_EXPRESSIONS = {
    "malformed": ("1+*2", "is malformed or nests too deeply"),
    "too-deep": ("-" * 2000 + "1", "nests too deeply"),
    "not-finite": ("1e200*1e200", "expression '1e200*1e200' is not finite"),
}
GUARD_ENTRY_POINTS = ["general-angle", "problem-amplitude", "circuit-t", "pointer-g"]


@pytest.mark.parametrize("expression,message", BAD_EXPRESSIONS.values(), ids=BAD_EXPRESSIONS.keys())
@pytest.mark.parametrize("entry", GUARD_ENTRY_POINTS)
def test_bad_expression_exits_two_without_traceback(entry, expression, message, tmp_path):
    if entry == "general-angle":
        args = ("scenario", f"general:theta={expression}")
    elif entry == "problem-amplitude":
        path = tmp_path / "bad.problem"
        path.write_text(GOOD_PROBLEM.replace("pre 0100 1/sqrt(2) 0", f"pre 0100 {expression} 0"))
        args = ("solve", str(path))
    elif entry == "circuit-t":
        device = Path(builtin()).read_text()
        path = tmp_path / "bad.circuit"
        path.write_text(device.replace("t=1/sqrt(2) r=-1/sqrt(2)", f"t={expression} r=-1/sqrt(2)"))
        args = ("circuit", str(path))
    else:
        args = ("pointer", "two-cat", "path:1:L", "--g", f"0.01,{expression}")
    proc = spawn(*args)
    assert proc.returncode == 2, proc.stderr
    assert b"Traceback" not in proc.stderr
    assert proc.stderr.startswith(b"error: ")
    assert message.encode() in proc.stderr


# ---------------------------------------------------------------------------
# imports: each subcommand loads only what it runs

IMPORT_PROBE = """\
import json, sys
from cheshire.cli import main
try:
    main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""


def probe_imports(*args):
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, *args], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize(
    "args,absent",
    [
        (("--help",), ("numpy", "cheshire.optics", "cheshire.solver", "click")),
        (("scenario", "two-cat"), ("numpy", "cheshire.optics", "cheshire.solver", "click")),
        (("circuit", "BUILTIN", "--emit", "probs"), ("numpy", "cheshire.solver", "click")),
        (("circuit", "BUILTIN", "--emit", "conditional-state"), ("numpy", "cheshire.solver", "click")),
    ],
)
def test_sparse_subcommands_load_no_numpy(args, absent):
    result = probe_imports(*(builtin() if a == "BUILTIN" else a for a in args))
    assert result["code"] == 0
    assert not set(absent) & set(result["modules"])


def test_numpy_subcommands_still_run(tmp_path):
    problem = tmp_path / "good.problem"
    problem.write_text(GOOD_PROBLEM)
    for args in (
        ("solve", str(problem)),
        ("pointer", "two-cat", "grin:1:R"),
        ("circuit", builtin(), "--emit", "counts", "--shots", "100"),
    ):
        result = probe_imports(*args)
        assert result["code"] == 0, args
        assert "click" not in result["modules"], args


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
    (MemoryError(), 2, "error: out of memory\n"),
    (MemoryError("Unable to allocate 8.00 GiB"), 2, "error: out of memory: Unable to allocate 8.00 GiB\n"),
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


def test_scenario_too_large_for_memory_exits_two(monkeypatch):
    """A MemoryError is an input too large, not a mismatch: exit 2 and one line, no traceback.
    The scenario build is replaced by one that raises, so nothing large is allocated."""
    from cheshire import scenarios

    def build_pair(sid):
        assert sid.n == 100000
        raise MemoryError

    monkeypatch.setattr(scenarios, "build_pair", build_pair)
    result = run_cli("scenario", "n-cat:n=100000")
    assert (result.exit_code, result.output) == (2, "")
    assert result.stderr == "error: out of memory\n"
