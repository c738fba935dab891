"""Tiny arithmetic expression parser for file formats and CLI parameters.

Grammar (complex-valued):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | '+' unary | atom
    atom   := NUMBER | 'pi' | 'i' | NAME '(' expr ')' | '(' expr ')'

Supported functions: sqrt, cos, sin, tan, exp. Whitespace is ignored.
Used for beam-splitter parameters, problem-file amplitudes, and scenario
angles, so files can say things like 1/sqrt(2) or pi/4 exactly.
"""

from __future__ import annotations

import cmath
import math
import re

from .errors import InputError

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/()]))"
)

_FUNCTIONS = {
    "sqrt": cmath.sqrt,
    "cos": cmath.cos,
    "sin": cmath.sin,
    "tan": cmath.tan,
    "exp": cmath.exp,
}

_CONSTANTS = {"pi": complex(math.pi), "i": 1j, "j": 1j}


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise InputError(f"unexpected character {text[pos:].strip()[0]!r} in expression {text!r}")
            break
        tokens.append(m.group("num") or m.group("name") or m.group("op"))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[str], source: str):
        self.tokens = tokens
        self.pos = 0
        self.source = source

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise InputError(f"unexpected end of expression {self.source!r}")
        self.pos += 1
        return tok

    def expect(self, tok: str) -> None:
        got = self.take()
        if got != tok:
            raise InputError(f"expected {tok!r} but found {got!r} in {self.source!r}")

    def expr(self) -> complex:
        value = self.term()
        while self.peek() in ("+", "-"):
            if self.take() == "+":
                value = value + self.term()
            else:
                value = value - self.term()
        return value

    def term(self) -> complex:
        value = self.unary()
        while self.peek() in ("*", "/"):
            if self.take() == "*":
                value = value * self.unary()
            else:
                divisor = self.unary()
                if divisor == 0:
                    raise InputError(f"division by zero in {self.source!r}")
                value = value / divisor
        return value

    def unary(self) -> complex:
        tok = self.peek()
        if tok == "-":
            self.take()
            return -self.unary()
        if tok == "+":
            self.take()
            return self.unary()
        return self.atom()

    def atom(self) -> complex:
        tok = self.take()
        if tok == "(":
            value = self.expr()
            self.expect(")")
            return value
        if tok[0].isdigit() or tok[0] == ".":
            return complex(float(tok))
        lowered = tok.lower()
        if lowered in _CONSTANTS:
            return _CONSTANTS[lowered]
        if lowered in _FUNCTIONS:
            self.expect("(")
            arg = self.expr()
            self.expect(")")
            try:
                return _FUNCTIONS[lowered](arg)
            except OverflowError:
                raise InputError(f"{lowered}({arg}) overflows in expression {self.source!r}") from None
        raise InputError(f"unknown name {tok!r} in expression {self.source!r}")


def parse_complex(text: str) -> complex:
    """Evaluate an arithmetic expression to a complex number."""
    tokens = _tokenize(text)
    if not tokens:
        raise InputError("empty expression")
    parser = _Parser(tokens, text)
    try:
        value = parser.expr()
    except RecursionError:
        raise InputError(f"expression {text[:40]!r}... nests too deeply") from None
    if parser.peek() is not None:
        raise InputError(f"trailing tokens after expression in {text!r}")
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise InputError(f"expression {text!r} is not finite")
    return value


def parse_real(text: str) -> float:
    """Evaluate an expression that must come out real (within 1e-12)."""
    value = parse_complex(text)
    if abs(value.imag) > 1e-12:
        raise InputError(f"expression {text!r} must be real, got imaginary part {value.imag}")
    return value.real
