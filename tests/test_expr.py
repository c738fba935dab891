import cmath
import math

import pytest

from cheshire.errors import InputError
from cheshire.expr import parse_complex, parse_real


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


def test_parse_real_rejects_imaginary():
    with pytest.raises(InputError):
        parse_real("i")


@pytest.mark.parametrize("bad", ["", "1+", "foo(2)", "1//2", "(1", "1 2", "sqrt", "2**3"])
def test_malformed_expressions(bad):
    with pytest.raises(InputError):
        parse_complex(bad)


def test_division_by_zero():
    with pytest.raises(InputError):
        parse_complex("1/0")


@pytest.mark.parametrize("text", ["exp(1000)", "cos(1000*i)"])
def test_function_overflow_is_input_error(text):
    with pytest.raises(InputError, match="overflows"):
        parse_real(text)
