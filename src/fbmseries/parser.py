"""Recursive-descent parser for the functional expression mini-language.

Grammar (whitespace insensitive; offsets in error messages are 1-based):

    expr   := term (('+'|'-') term)*
    term   := unary ('*' unary)*
    unary  := '-' unary | factor
    factor := atom ('^' UINT)?
    atom   := NUMBER | 'B' '(' time ')'
            | 'WI' '(' wpoly ';' time ',' time ')'
            | 'IB' '(' time ',' time ')' | 'IB2' '(' time ',' time ')'
            | 'exp' '(' expr ')' | '(' expr ')'
    wpoly  := wterm (('+'|'-') wterm)*      polynomial in the symbol s
    wterm  := NUMBER ('*' 's' ('^' UINT)?)? | 's' ('^' UINT)?
    time   := NUMBER | 't' UINT | 'T'

Grid symbols t1..tJ and T resolve against a TimeGrid when one is supplied;
using them without a grid, or any unknown name, is a parse error.  Times
are validated against [0, T] when the grid is known.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .functional import (
    Expr,
    TimeGrid,
    WienerInt,
    fbm_sample,
    make_exp,
    make_power,
    make_product,
    make_sum,
    scale,
    time_int_b,
)
from .kernel import PiecewisePoly


class ParseError(ValueError):
    """Syntax or symbol error; offset is the 1-based position in the source."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    pos: int


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z][A-Za-z0-9]*)"
    r"|(?P<op>[-+*^();,]))")


def _tokenize(src: str):
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            stripped = src[pos:].lstrip()
            if not stripped:
                break
            bad = len(src) - len(stripped)
            raise ParseError(f"unexpected character '{src[bad]}'", bad + 1)
        if m.lastgroup == "num":
            tokens.append(_Token("num", m.group("num"), m.start("num")))
        elif m.lastgroup == "name":
            tokens.append(_Token("name", m.group("name"), m.start("name")))
        else:
            tokens.append(_Token("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(_Token("end", "", len(src)))
    return tokens


class _Parser:
    def __init__(self, src: str, grid: "TimeGrid | None"):
        self.src = src
        self.grid = grid
        self.tokens = _tokenize(src)
        self.i = 0

    # -- token stream -------------------------------------------------------

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str) -> _Token:
        tok = self.peek()
        if tok.kind != "op" or tok.text != op:
            raise ParseError(f"expected '{op}'", tok.pos + 1)
        return self.advance()

    def fail(self, message: str):
        raise ParseError(message, self.peek().pos + 1)

    # -- grammar ------------------------------------------------------------

    def parse(self) -> Expr:
        e = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected trailing input '{tok.text}'", tok.pos + 1)
        return e

    def expr(self) -> Expr:
        terms = [self.term()]
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            nxt = self.term()
            terms.append(nxt if op == "+" else scale(nxt, -1.0))
        return make_sum(terms)

    def term(self) -> Expr:
        factors = [self.unary()]
        while self.peek().kind == "op" and self.peek().text == "*":
            self.advance()
            factors.append(self.unary())
        return make_product(factors)

    def unary(self) -> Expr:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            return scale(self.unary(), -1.0)
        return self.factor()

    def factor(self) -> Expr:
        base = self.atom()
        if self.peek().kind == "op" and self.peek().text == "^":
            self.advance()
            return make_power(base, self.uint())
        return base

    def uint(self) -> int:
        tok = self.peek()
        if tok.kind != "num" or not tok.text.isdigit():
            self.fail("expected a nonnegative integer exponent")
        self.advance()
        return int(tok.text)

    def number(self) -> float:
        tok = self.peek()
        if tok.kind != "num":
            self.fail("expected a number")
        self.advance()
        return float(tok.text)

    def atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "num":
            return self._const()
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            e = self.expr()
            self.expect_op(")")
            return e
        if tok.kind == "name":
            if tok.text == "B":
                return self._sample()
            if tok.text == "WI":
                return self._wiener()
            if tok.text == "IB":
                return self._time_int(1)
            if tok.text == "IB2":
                return self._time_int(2)
            if tok.text == "exp":
                self.advance()
                self.expect_op("(")
                e = self.expr()
                self.expect_op(")")
                return make_exp(e)
            raise ParseError(f"unknown symbol '{tok.text}'", tok.pos + 1)
        self.fail("expected an expression")

    def _const(self) -> Expr:
        from .functional import Const
        return Const(self.number())

    def _sample(self) -> Expr:
        self.advance()
        self.expect_op("(")
        t = self.time()
        self.expect_op(")")
        return fbm_sample(t)

    def _wiener(self) -> Expr:
        self.advance()
        self.expect_op("(")
        coeffs = self.weight_poly()
        self.expect_op(";")
        a = self.time()
        self.expect_op(",")
        b = self.time()
        close = self.peek()
        self.expect_op(")")
        if b <= a:
            raise ParseError("Wiener integral needs a nonempty interval",
                             close.pos + 1)
        return WienerInt(PiecewisePoly.from_poly(coeffs, a, b), a, b)

    def _time_int(self, power: int) -> Expr:
        self.advance()
        self.expect_op("(")
        a = self.time()
        self.expect_op(",")
        b = self.time()
        close = self.peek()
        self.expect_op(")")
        if b <= a:
            raise ParseError("time integral needs a nonempty interval",
                             close.pos + 1)
        return time_int_b((a,), b, power)

    def weight_poly(self) -> tuple:
        coeffs = {}

        def add(power, coef):
            coeffs[power] = coeffs.get(power, 0.0) + coef

        sign = 1.0
        while True:
            tok = self.peek()
            if tok.kind == "num":
                c = sign * self.number()
                if self.peek().kind == "op" and self.peek().text == "*":
                    self.advance()
                    add(self._s_power(), c)
                else:
                    add(0, c)
            elif tok.kind == "name" and tok.text == "s":
                add(self._s_power(), sign)
            else:
                self.fail("expected a polynomial in s")
            nxt = self.peek()
            if nxt.kind == "op" and nxt.text in "+-":
                sign = 1.0 if nxt.text == "+" else -1.0
                self.advance()
                continue
            break
        top = max(coeffs)
        return tuple(coeffs.get(i, 0.0) for i in range(top + 1))

    def _s_power(self) -> int:
        tok = self.peek()
        if tok.kind != "name" or tok.text != "s":
            self.fail("expected the integration symbol s")
        self.advance()
        if self.peek().kind == "op" and self.peek().text == "^":
            self.advance()
            return self.uint()
        return 1

    def time(self) -> float:
        tok = self.peek()
        if tok.kind == "num":
            t = self.number()
            self._check_time(t, tok)
            return t
        if tok.kind == "name":
            if tok.text == "T":
                if self.grid is None:
                    raise ParseError("symbol 'T' needs a time grid", tok.pos + 1)
                self.advance()
                return self.grid.final_time
            m = re.fullmatch(r"t(\d+)", tok.text)
            if m:
                if self.grid is None:
                    raise ParseError(f"symbol '{tok.text}' needs a time grid",
                                     tok.pos + 1)
                idx = int(m.group(1))
                if not (1 <= idx <= self.grid.n_cells):
                    raise ParseError(f"grid symbol '{tok.text}' outside t1..t{self.grid.n_cells}",
                                     tok.pos + 1)
                self.advance()
                return self.grid.times[idx]
        self.fail("expected a time")

    def _check_time(self, t: float, tok: _Token):
        if t < 0.0:
            raise ParseError(f"time {t} is negative", tok.pos + 1)
        if self.grid is not None and t > self.grid.final_time:
            raise ParseError(f"time {t} exceeds the horizon {self.grid.final_time}",
                             tok.pos + 1)


def parse(src: str, grid: "TimeGrid | None" = None) -> Expr:
    """Parse a functional expression; grid enables the t1..tJ and T symbols."""
    return _Parser(src, grid).parse()
