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
are validated against [0, T] when the grid is known.  A number literal must
be finite, and nesting deeper than the interpreter's stack can follow is a
parse error too.
"""

import math
import re

from .functional import (
    Const,
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


# every character starts one of these, so the matches tile the source
_TOKEN_RE = re.compile(
    r"(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z][A-Za-z0-9]*)"
    r"|(?P<op>[-+*^();,])|(?P<space>\s+)|(?P<bad>.)")
# T is the last grid time, tK the K-th
_GRID_SYMBOL = re.compile(r"T|t(\d+)")
# The call atoms, name '(' arg (sep arg)* ')'.  Each gives the rule of every
# argument with the separator before it; what it is called when its last two
# arguments, a time interval, are empty (None: it takes no interval); and
# the constructor of its node.
_CALLS = {
    "B": ((("(", "time"),), None, fbm_sample),
    "WI": ((("(", "weight_poly"), (";", "time"), (",", "time")), "Wiener integral",
           lambda w, a, b: WienerInt(PiecewisePoly.from_poly(w, a, b), a, b)),
    "IB": ((("(", "time"), (",", "time")), "time integral",
           lambda a, b: time_int_b((a,), b, 1)),
    "IB2": ((("(", "time"), (",", "time")), "time integral",
            lambda a, b: time_int_b((a,), b, 2)),
    "exp": ((("(", "expr"),), None, make_exp),
}


def _tokenize(src: str) -> list:
    """(kind, text, 0-based position) tuples, closed by an 'end' token."""
    tokens = []
    for m in _TOKEN_RE.finditer(src):
        if m.lastgroup == "bad":
            raise ParseError(f"unexpected character '{m[0]}'", m.start() + 1)
        if m.lastgroup != "space":
            tokens.append((m.lastgroup, m[0], m.start()))
    return tokens + [("end", "", len(src))]


class _Parser:
    def __init__(self, src: str, grid: "TimeGrid | None"):
        self.grid = grid
        self.tokens = _tokenize(src)
        self.i = 0

    def take(self, kind: str, texts=None):
        """Consume and return the next token if it is of this kind and, when
        texts is given, one of them; otherwise None."""
        tok = self.tokens[self.i]
        if tok[0] == kind and (texts is None or tok[1] in texts):
            self.i += 1
            return tok

    def expect(self, op: str):
        if self.take("op", op) is None:
            self.fail(f"expected '{op}'")

    def fail(self, message: str):
        raise ParseError(message, self.tokens[self.i][2] + 1)

    def expr(self) -> Expr:
        terms = []
        op = ("op", "+", None)  # the sign of the first term
        while op is not None:
            nxt = self.term()
            terms.append(nxt if op[1] == "+" else scale(nxt, -1.0))
            op = self.take("op", "+-")
        return make_sum(terms)

    def term(self) -> Expr:
        factors = [self.unary()]
        while self.take("op", "*"):
            factors.append(self.unary())
        return make_product(factors)

    def unary(self) -> Expr:
        """unary, with factor folded in: one frame fewer per nesting level."""
        if self.take("op", "-"):
            return scale(self.unary(), -1.0)
        base = self.atom()
        if self.take("op", "^"):
            return make_power(base, self.uint())
        return base

    def uint(self) -> int:
        text = self.tokens[self.i][1]
        if not text.isdigit():  # only a number token is all digits
            self.fail("expected a nonnegative integer exponent")
        self.i += 1
        return int(text)

    def number(self, tok) -> float:
        value = float(tok[1])
        if not math.isfinite(value):
            raise ParseError(f"a number must be finite, got {tok[1]}", tok[2] + 1)
        return value

    def atom(self) -> Expr:
        tok = self.take("num")
        if tok is not None:
            return Const(self.number(tok))
        if self.take("op", "("):
            e = self.expr()
            self.expect(")")
            return e
        tok = self.take("name", _CALLS)
        if tok is None:
            kind, text, _ = self.tokens[self.i]
            self.fail(f"unknown symbol '{text}'" if kind == "name" else "expected an expression")
        rules, interval, build = _CALLS[tok[1]]
        args = []
        for sep, rule in rules:
            self.expect(sep)
            args.append(getattr(self, rule)())
        close = self.tokens[self.i]
        self.expect(")")
        if interval is not None and args[-1] <= args[-2]:
            raise ParseError(f"{interval} needs a nonempty interval", close[2] + 1)
        return build(*args)

    def weight_poly(self) -> tuple:
        coeffs = {}
        op = ("op", "+", None)  # the sign of the first term
        while op is not None:
            sign = 1.0 if op[1] == "+" else -1.0
            tok = self.take("num")
            if tok is None:
                c, power = sign, self.s_power("expected a polynomial in s")
            else:
                c = sign * self.number(tok)
                power = (self.s_power("expected the integration symbol s")
                         if self.take("op", "*") else 0)
            coeffs[power] = coeffs.get(power, 0.0) + c
            op = self.take("op", "+-")
        return tuple(coeffs.get(i, 0.0) for i in range(max(coeffs) + 1))

    def s_power(self, message: str) -> int:
        """'s' ('^' UINT)?; message says what was expected if 's' is not next."""
        if self.take("name", ("s",)) is None:
            self.fail(message)
        return self.uint() if self.take("op", "^") else 1

    def time(self) -> float:
        kind, text, _ = tok = self.tokens[self.i]
        m = _GRID_SYMBOL.fullmatch(text)  # only a name token can match
        if kind == "num":
            t = self.number(tok)
            if self.grid is not None and t > self.grid.final_time:
                self.fail(f"time {t} exceeds the horizon {self.grid.final_time}")
        elif m is None:
            self.fail("expected a time")
        elif self.grid is None:
            self.fail(f"symbol '{text}' needs a time grid")
        else:
            idx = self.grid.n_cells if m[1] is None else int(m[1])
            if not 1 <= idx <= self.grid.n_cells:
                self.fail(f"grid symbol '{text}' outside t1..t{self.grid.n_cells}")
            t = self.grid.times[idx]
        self.i += 1
        return t


def parse(src: str, grid: "TimeGrid | None" = None) -> Expr:
    """Parse a functional expression; grid enables the t1..tJ and T symbols."""
    parser = _Parser(src, grid)
    try:
        e = parser.expr()
    except RecursionError:
        raise ParseError("expression nested too deeply",
                         parser.tokens[parser.i][2] + 1) from None
    if parser.take("end") is None:
        parser.fail(f"unexpected trailing input '{parser.tokens[parser.i][1]}'")
    return e
