"""Expressions and directive lines: what the file formats and CLI parameters share.

Python's parser reads the text, and the evaluator accepts only this grammar:

    expr := NUMBER | NAME | FUNC '(' expr ')' | '(' expr ')' | ('+' | '-') expr
          | expr ('+' | '-' | '*' | '/') expr

with Python's precedence and int and float literals (2, .5, 2.5e-3, 0x1f).
NAME is pi, i or j and FUNC is sqrt, cos, sin, tan or exp, in any case. The
text holds only ASCII letters, digits, '.+-*/()', spaces and tabs; arithmetic
is complex, so files and parameters can say 1/sqrt(2) or pi/4 exactly.

`parse_pairs` reads the key=value settings of a circuit directive or a
scenario id. `parse_natural` reads every integer field of the file formats
and the CLI (photon counts and indices, n) in ASCII digits only: no sign,
underscore, blank or other script's digit, all of which int() takes.
`Directives` reads the lines both file formats share: one directive per line,
'#' starting a comment, and one `photons N` line.
"""

from __future__ import annotations

import ast
import cmath
import math
import operator
import re
import warnings
from typing import Container, Iterable, Mapping

from .errors import FileParseError, InputError

_FOREIGN = re.compile(r"[^A-Za-z0-9.+\-*/() \t]")
# a number run into a keyword ("1if", "0x1for") makes the parser warn; hex
# digits can run into one too, so look for the keywords anywhere
_KEYWORD = re.compile(r"and|else|for|if|in|is|not|or")

_FUNCTIONS = {name: getattr(cmath, name) for name in ("sqrt", "cos", "sin", "tan", "exp")}

_CONSTANTS = {"pi": complex(math.pi), "i": 1j, "j": 1j}

_OPERATORS = {
    ast.UAdd: operator.pos, ast.USub: operator.neg,
    ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul, ast.Div: operator.truediv,
}


def _evaluate(node: ast.expr, text: str) -> complex:
    match node:
        case ast.Constant(value=value) if type(value) in (int, float):
            return complex(value)
        case ast.Name(id=name) if name.lower() in _CONSTANTS:
            return _CONSTANTS[name.lower()]
        case ast.UnaryOp(op=op, operand=operand) if type(op) in _OPERATORS:
            return _OPERATORS[type(op)](_evaluate(operand, text))
        case ast.BinOp(left=left, op=op, right=right) if type(op) in _OPERATORS:
            return _OPERATORS[type(op)](_evaluate(left, text), _evaluate(right, text))
        case ast.Call(func=ast.Name(id=name), args=[arg], keywords=[]) if name.lower() in _FUNCTIONS:
            return _FUNCTIONS[name.lower()](_evaluate(arg, text))
    raise InputError(f"cannot evaluate {ast.unparse(node)!r} in expression {text!r}")


def _parse(body: str) -> ast.Expression:
    if _KEYWORD.search(body) is None:
        return compile(body, "<expression>", "eval", ast.PyCF_ONLY_AST)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refuse the warning, print nothing
        return compile(body, "<expression>", "eval", ast.PyCF_ONLY_AST)


def parse_complex(text: str) -> complex:
    """Evaluate an arithmetic expression to a complex number."""
    body = text.strip()
    if (foreign := _FOREIGN.search(body)) is not None:
        raise InputError(f"unexpected character {foreign.group()!r} in expression {text!r}")
    try:
        value = _evaluate(_parse(body).body, text)
    except SyntaxError as exc:  # the tokenizer also stops at 200 nested parentheses
        raise InputError(f"expression {text[:40]!r} is malformed or nests too deeply: {exc.msg}") from None
    except (RecursionError, MemoryError):
        raise InputError(f"expression {text[:40]!r}... nests too deeply") from None
    except ZeroDivisionError:
        raise InputError(f"division by zero in {text!r}") from None
    except (OverflowError, ValueError):  # an integer beyond float, or cmath on an infinite argument
        raise InputError(f"expression {text[:40]!r} overflows") from None
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise InputError(f"expression {text!r} is not finite")
    return value


def parse_real(text: str) -> float:
    """Evaluate an expression that must come out real (within 1e-12)."""
    value = parse_complex(text)
    if abs(value.imag) > 1e-12:
        raise InputError(f"expression {text!r} must be real, got imaginary part {value.imag}")
    return value.real


def parse_pairs(
    parts: Iterable[str],
    keys: Container[str],
    flags: Container[str] = (),
    aliases: Mapping[str, str] | None = None,
) -> dict[str, str]:
    """Values by key from key=value parts; a part without '=' is a flag, which maps to "".

    Each key comes at most once with a nonempty value, and only the given
    keys and flags are accepted. Blanks around a key or value are dropped and
    blank parts skipped; `aliases` maps other spellings to their key.
    """
    pairs: dict[str, str] = {}
    for part in parts:
        key, eq, value = part.partition("=")
        key, value = key.strip(), value.strip()
        if aliases:
            key = aliases.get(key, key)
        if not eq:
            if key in flags:
                pairs[key] = ""
            elif key:  # a blank part is skipped
                raise InputError(f"unknown flag {key!r}")
        elif key not in keys:
            raise InputError(f"unknown key {key!r}")
        elif key in pairs:
            raise InputError(f"duplicate key {key!r}")
        elif not value:
            raise InputError(f"empty value for {key!r}")
        else:
            pairs[key] = value
    return pairs


def parse_natural(text: str, what: str) -> int:
    """A whole number written in ASCII digits and nothing else."""
    if not (text.isascii() and text.isdigit()):
        raise InputError(f"{what} must be a whole number in ASCII digits, got {text!r}")
    return int(text)


class Directives:
    """The directives of a file, in file order.

    Iterating yields (line_no, words) for every directive; a `photons N`
    line first sets `convention` (once; N a positive integer, read by
    BasisConvention). Errors raise `error(message, line_no)`.
    """

    def __init__(self, text: str, error: type[FileParseError]):
        self.text, self.error, self.convention = text, error, None

    def __iter__(self):
        from .hilbert import BasisConvention  # here, so that CLI parameters load no state algebra

        for line_no, line in enumerate(self.text.splitlines(), start=1):
            words = line.split("#", 1)[0].split()
            if not words:
                continue
            if words[0] == "photons":
                if self.convention is not None:
                    raise self.error("duplicate photons line", line_no)
                if len(words) != 2:
                    raise self.error("photons needs one positive integer", line_no)
                try:
                    self.convention = BasisConvention(parse_natural(words[1], "photons"))
                except InputError as exc:
                    raise self.error(str(exc), line_no) from None
            yield line_no, words
