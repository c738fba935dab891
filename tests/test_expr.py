import cmath
import math
import warnings

import pytest

from cheshire import BasisConvention
from cheshire.errors import FileParseError, InputError
from cheshire.expr import Directives, parse_complex, parse_natural, parse_pairs, parse_real


@pytest.mark.parametrize(
    "text,value",
    [
        ("0", 0),
        ("1/sqrt(2)", 1 / math.sqrt(2)),
        ("-1/sqrt(2)", -1 / math.sqrt(2)),
        ("sqrt(2/3)", math.sqrt(2 / 3)),
        ("cos(pi/4)", math.cos(math.pi / 4)),
        ("3*pi/8", 3 * math.pi / 8),
        ("2.5e-3", 2.5e-3),
        ("exp(i*pi)", -1.0),
        ("i*i", -1.0),
        ("(1+i)*(1-i)", 2.0),
        ("tan(pi/8)", math.tan(math.pi / 8)),
        ("PI/2", math.pi / 2),
        ("Sqrt(4)", 2.0),
        ("2*-3", -6.0),
        ("--1", 1.0),
        (" 1 + 2 ", 3.0),
    ],
)
def test_parse_complex_values(text, value):
    assert cmath.isclose(parse_complex(text), value, abs_tol=1e-15)


def test_imaginary_unit_spellings():
    assert parse_complex("i") == 1j
    assert parse_complex("j") == 1j
    assert parse_complex("i/2") == 0.5j


def test_parse_real_accepts_real_expressions():
    assert parse_real("pi/4") == math.pi / 4


def test_parse_real_keeps_the_sign_of_zero():
    assert math.copysign(1.0, parse_real("-0")) == -1.0


def test_parse_real_rejects_imaginary():
    with pytest.raises(InputError):
        parse_real("i")


@pytest.mark.parametrize(
    "bad",
    [
        "", "1+", "foo(2)", "1//2", "(1", "1 2", "sqrt", "2**3", "2j", "True", "1_000", "1 # c", "sqrt(1, 2)",
        "sqrt(x=1)", "a.b", "(1, 2)", "1 % 2", "not 1", "__import__('os')",
    ],
)
def test_malformed_expressions(bad):
    with pytest.raises(InputError):
        parse_complex(bad)


def test_division_by_zero():
    with pytest.raises(InputError):
        parse_complex("1/0")


@pytest.mark.parametrize(
    "text", ["exp(1000)", "cos(1000*i)", "cos(1e400)", pytest.param("1" * 400, id="integer-beyond-float")]
)
def test_function_overflow_is_input_error(text):
    with pytest.raises(InputError, match="overflows"):
        parse_real(text)


@pytest.mark.parametrize(
    "text",
    [
        "(" * 300 + "1" + ")" * 300,
        "-" * 2000 + "1",
        "-" * 100_000 + "1",
        "1+" * 5_000 + "1",
        "sqrt(" * 300 + "1" + ")" * 300,
    ],
    ids=["parens", "unary-minus", "unary-minus-100k", "flat-sum", "nested-sqrt"],
)
def test_deep_nesting_is_input_error(text):
    with pytest.raises(InputError, match="nests too deeply"):
        parse_complex(text)


@pytest.mark.parametrize("text", ["0x1for 1", "0x1fin 1", "1if 1 else 2"])
def test_number_run_into_a_keyword_is_refused_silently(text, capsys):
    """Python's parser warns on these; hex digits can run into a keyword too."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(InputError):
            parse_complex(text)
    assert caught == []
    assert capsys.readouterr() == ("", "")


def test_directives_yield_words_and_read_photons():
    lines = Directives("# head\n\ntarget a  b # c\nphotons 3 # three\npre x\n", FileParseError)
    assert list(lines) == [(3, ["target", "a", "b"]), (4, ["photons", "3"]), (5, ["pre", "x"])]
    assert lines.convention == BasisConvention(3)


@pytest.mark.parametrize("text,value", [("0", 0), ("1", 1), ("12", 12), ("007", 7)])
def test_parse_natural_reads_ascii_digits(text, value):
    assert parse_natural(text, "n") == value


# int() reads every one of these: other scripts' digits, a sign, an underscore, blanks
@pytest.mark.parametrize("text", ["\u0661", "\u0661\u0662", "+1", "0_1", "-1", " 1", "1 ", "", "1.0", "\u00b2", "x"])
def test_parse_natural_refuses_all_but_ascii_digits(text):
    with pytest.raises(InputError, match="ASCII digits"):
        parse_natural(text, "n")


def test_parse_pairs_reads_keys_flags_and_aliases():
    assert parse_pairs(["t=1", "adjustable", "name=BS1"], ("name", "t"), ("adjustable",)) == {
        "t": "1", "adjustable": "", "name": "BS1",
    }
    assert parse_pairs(" θ = pi/4 ,, phi=0 ,".split(","), ("theta", "phi"), aliases={"θ": "theta"}) == {
        "theta": "pi/4", "phi": "0",
    }


@pytest.mark.parametrize(
    "parts,message",
    [
        (["fast"], "unknown flag 'fast'"),
        (["psi=1"], "unknown key 'psi'"),
        (["theta=1", "θ=2"], "duplicate key 'theta'"),
        (["theta= "], "empty value for 'theta'"),
    ],
)
def test_parse_pairs_refuses(parts, message):
    with pytest.raises(InputError, match=message):
        parse_pairs(parts, ("theta",), aliases={"θ": "theta"})
