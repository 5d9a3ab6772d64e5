"""Symbolic functionals of a fractional Brownian path and their calculus.

An Expr is an immutable expression DAG built from samples B_t, Wiener
integrals int f dB, time integrals int_{max(a)}^b B^k ds of a power k >= 1,
and the closure of those under sums, products, integer powers, exp, and
Hermite polynomials.  Nodes are hash-consed: constructing a node equal to a
live one returns that node, so equal subexpressions are shared, equality is
identity, and the derivative, freeze, evaluation and the structural queries
each handle a distinct node once.  Each node kind carries its own rules as
methods (operands, times, free variables, derivative, frozen form, evaluation
step, S-expression), and one generic fold walks the DAG with them.  Two
operations drive everything else:

  * directional: the fractional pathwise derivative D_at, taken in one of
                 two directions.  With a variable name u it is the Malliavin
                 derivative in a free variable: D_u B_t = 1_{[0,t]}(u),
                 D_u int_a^b f dB = f(u) 1_{[a,b]}(u),
                 D_u int_{max(a)}^b B^k ds = k int_{max(a,u)}^b B^(k-1) ds,
                 where power 0 is the ramp (b - max(a, u))^+.  With a grid
                 time tau it is the same derivative with u bound to tau,
                 which differentiates with respect to every sample at a
                 time >= tau.  Product, power and chain rules are shared.
  * freeze:      composition with the path stopped at r (B_s -> B_{min(s,r)});
                 time integrals split into their observed part on [a, min(b,r)]
                 plus B_{min(b,r)}^k times the remaining length.

Deterministic helper nodes (indicators, polynomials of a free variable,
ramps max(0, b - max(args)), kernel integrals) appear as derivative output
and as partially integrated kernel terms.  Evaluation on a path is strict:
sampling, or integrating between limits of the functional, at a time that
is not a grid point is an error, never an interpolation.  A time integral
whose lower limit is a bound variable starts from the path's linear
interpolant there, so on one path it is a polynomial in that limit on each
grid cell (TimeIntB.pieces); a kernel integral over that variable is then an
exact kernel moment, as for the piecewise-polynomial factors.  A
variable may be bound to an array of values, such as all the nodes of a
quadrature grid, which one evaluation then handles elementwise (see
evaluate).
"""

from __future__ import annotations

import bisect
import functools
import math
import operator
import weakref
from dataclasses import dataclass, fields
from typing import Iterable, Union

import numpy as np

from .kernel import PiecewisePoly, pieces_phi_moment
from .special import hermite_eval


class EvalError(RuntimeError):
    pass


class OffGridTimeError(EvalError):
    """A sample or integral endpoint does not lie on the path grid."""


class UnboundVariableError(EvalError):
    """A free variable had no binding at evaluation time."""


class UnsupportedNodeError(RuntimeError):
    """The requested operation is not defined for this node kind."""


# ---------------------------------------------------------------------------
# node kinds: an interned DAG whose nodes carry their own rules


_interned = {}   # construction key -> weak reference to the live node


class _Ref(weakref.ref):
    __slots__ = ("key",)


def _forget(ref, table=_interned):
    """Drop a dead node's entry (the table is bound early for interpreter exit)."""
    if table.get(ref.key) is ref:
        del table[ref.key]


def _exact(value):
    """Key part of a plain field (see _Node)."""
    return value if type(value) is float and value else repr(value)


class _Node:
    """Base of every node kind, holding the rules of a deterministic leaf.

    Nodes are interned: constructing a node structurally equal to a live one
    returns that node, so equality is identity and a node hashes by
    identity, in constant time, however large the subexpression below it.
    The intern table holds weak references, so an entry goes when its node
    does.  Its key is the kind, the fields, and one extra part per plain
    field: a nonzero float as it is, anything else by repr, which keeps
    0.0 apart from -0.0 and 1 apart from 1.0.  A kind with one plain field,
    such as Const, builds that key inline, without the generic
    comprehension.  The table is not locked: two threads building equal
    nodes at once may get two nodes, which collect_terms then keeps as
    separate terms.
    _plain lists the positions of the fields that hold plain values
    rather than nodes (see _kind); _plan caches the evaluation schedule of
    a node evaluated as a root.

    A kind's rules are its methods; the fold rules take the results at the
    node's operands (or children) and one argument.  Besides the defaults
    below, every kind defines step, its value given its operand's value,
    and sexpr, its S-expression given those of its children.  The class
    flags say
    whether a kind reads the path (random), whether it depends on the path
    only through B_t samples if at all (discrete), whether it has an exact
    piecewise-polynomial form in one variable (pw; such a kind has pwpoly,
    its concrete piecewise polynomial in a variable it depends on, over
    [lo, hi], or None for an identically zero restriction), and how an
    n-ary kind folds an operand's value into its own (combine).
    """

    __slots__ = ("_plan", "__weakref__")
    _plain = ()
    random = False
    discrete = True
    pw = False
    combine = None

    def __new__(cls, *args):
        plain = cls._plain
        if len(plain) == 1:  # _exact inlined for the hot one-field kinds
            v = args[plain[0]]
            key = (cls, *args, v if type(v) is float and v else repr(v))
        else:
            key = (cls, *args, *[_exact(args[i]) for i in plain])
        ref = _interned.get(key)
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        names = cls.__match_args__
        if len(args) != len(names):
            raise TypeError(f"{cls.__name__} takes {len(names)} fields")
        node = object.__new__(cls)
        for name, value in zip(names, args):
            object.__setattr__(node, name, value)
        if hasattr(node, "__post_init__"):
            node.__post_init__()
        ref = _interned[key] = _Ref(node, _forget)
        ref.key = key
        return node

    def __reduce__(self):
        return type(self), tuple(getattr(self, n) for n in self.__match_args__)

    def operands(self) -> tuple:
        """The children a node's value and derivative are computed from."""
        return ()

    def children(self) -> tuple:
        """Every child node; a kernel integral's factors are children but not
        operands, since they are functions of its bound variable."""
        return self.operands()

    def times(self) -> tuple:
        """The node's own time constants."""
        return ()

    def free_vars(self, inner: list, _) -> set:
        """Unbound names, given those of the children."""
        return set().union(*inner)

    def derivative(self, ds: list, at) -> Expr:
        """D_at of the node, given D_at of each operand."""
        return ZERO

    def frozen(self, fs: list, r: float) -> Expr:
        """The node on the path stopped at r, given its frozen operands."""
        return self


def _kind(cls):
    """Declare a node kind: a frozen, slotted dataclass compared by identity.
    Fields annotated with Expr hold nodes, the others plain values."""
    cls = dataclass(frozen=True, slots=True, eq=False, init=False)(cls)
    cls._plain = tuple(i for i, f in enumerate(fields(cls)) if "Expr" not in f.type)
    return cls


def _on(path, what: str, bindings) -> "GridPath":
    if path is None:
        raise EvalError(f"path required to evaluate {what}")
    if bindings and np.ndim(path.values) > 1 and _batch_shape(bindings):
        raise EvalError(f"array bindings need a single path to evaluate {what}")
    return path


@_kind
class Const(_Node):
    value: float
    pw = True

    def step(self, x, h, path, bindings):
        return self.value

    def sexpr(self, inner, rename) -> str:
        return _fmt(self.value)


@_kind
class FbmSample(_Node):
    """B_t for a fixed time t > 0 (t = 0 folds to the constant 0)."""

    t: float
    random = True

    def times(self):
        return (self.t,)

    def derivative(self, ds, at):
        if isinstance(at, str):
            return Indicator(at, 0.0, self.t)
        return ONE if at <= self.t else ZERO

    def frozen(self, fs, r):
        return fbm_sample(min(self.t, r))

    def step(self, x, h, path, bindings):
        return _on(path, "B_t", bindings).value(self.t)

    def sexpr(self, inner, rename) -> str:
        return f"(B {_fmt(self.t)})"


@_kind
class WienerInt(_Node):
    """int_lo^hi f(s) dB_s with a deterministic piecewise-polynomial f."""

    weight: PiecewisePoly
    lo: float
    hi: float
    random = True
    discrete = False

    def times(self):
        return (self.lo, self.hi, *[b for b in self.weight.breaks
                                    if self.lo <= b <= self.hi])

    def derivative(self, ds, at):
        if not isinstance(at, str):
            if self.lo <= at <= self.hi:
                return Const(float(self.weight(at)))
            return ZERO
        terms = []
        for a, b, c in self.weight.pieces():
            aa, bb = max(a, self.lo), min(b, self.hi)
            if aa < bb:
                terms.append(make_product([PolyInVar(tuple(float(x) for x in c), at),
                                           Indicator(at, aa, bb)]))
        return make_sum(terms)

    def frozen(self, fs, r):
        hi = min(self.hi, r)
        if hi <= self.lo:
            return ZERO
        return WienerInt(self.weight, self.lo, hi)

    def step(self, x, h, path, bindings):
        return _on(path, "a Wiener integral", bindings).stieltjes(
            self.weight, self.lo, self.hi)

    def sexpr(self, inner, rename) -> str:
        pieces = " ".join(
            f"({_fmt(a)} {_fmt(b)} {' '.join(_fmt(c) for c in cs)})"
            for a, b, cs in self.weight.pieces())
        return f"(WI ({pieces}) {_fmt(self.lo)} {_fmt(self.hi)})"


@_kind
class TimeIntB(_Node):
    """int_{max(lower)}^{upper} B_s^power ds for a power >= 1; lower mixes
    constants and variable names.  A constant of lower that is the lower
    limit of some element must be a grid time."""

    lower: tuple
    upper: float
    power: int
    random = True
    discrete = False

    def times(self):
        return (self.upper, *[a for a in self.lower if not isinstance(a, str)])

    def free_vars(self, inner, _):
        return {a for a in self.lower if isinstance(a, str)}

    def derivative(self, ds, at):
        return scale(time_int_b(self.lower + (at,), self.upper, self.power - 1),
                     self.power)

    def frozen(self, fs, r):
        c = min(self.upper, r)
        tail = make_product([make_power(fbm_sample(c), self.power),
                             ramp_max(self.upper, self.lower + (c,))])
        return make_sum([time_int_b(self.lower, c, self.power), tail])

    def _floor(self, args, path, bindings):
        """max(args), elementwise; a constant of args that is the limit of an
        element below upper is checked to be a grid time, since only a bound
        variable may fall between grid times."""
        lo = _max(_resolve_args(args, bindings))
        for c in set(args).intersection(np.ravel(lo)[np.ravel(lo) < self.upper].tolist()):
            path.index_of(c)
        return lo

    def step(self, x, h, path, bindings):
        path = _on(path, "a time integral", bindings)
        lo = self._floor(self.lower, path, bindings)
        if np.ndim(lo):
            return path.integral_from(lo, self.upper, self.power)
        return 0.0 if lo >= self.upper else path.trapezoid(self.power, lo, self.upper)

    def pieces(self, ivar, path, bindings):
        """The path form in ivar: u -> the integral with ivar bound to u, on
        one path, as pieces (a, b, ascending coefficients in u); the other
        limits may be bound to arrays (see GridPath.integral_pieces)."""
        path = _on(path, "a time integral", bindings)
        if path.values.ndim > 1:
            raise EvalError(f"the kernel moment of a time integral from '{ivar}' "
                            f"needs a single path")
        others = [a for a in self.lower if a != ivar]
        floor = self._floor(others, path, bindings) if others else 0.0
        return path.integral_pieces(floor, self.upper, self.power)

    def sexpr(self, inner, rename) -> str:
        if self.power == 1:
            return f"(IB (max {_args(self.lower, rename)}) {_fmt(self.upper)})"
        return f"(IB{self.power} {_args(self.lower, rename)} {_fmt(self.upper)})"


@_kind
class RampMax(_Node):
    """max(0, cap - max(args)); args mix constants and variable names."""

    cap: float
    args: tuple
    pw = True

    def times(self):
        return (self.cap, *[a for a in self.args if not isinstance(a, str)])

    def free_vars(self, inner, _):
        return {a for a in self.args if isinstance(a, str)}

    def step(self, x, h, path, bindings):
        return _max([0.0, self.cap - _max(_resolve_args(self.args, bindings))])

    def pwpoly(self, ivar, lo, hi, bindings):
        others = [a for a in self.args if a != ivar]
        floor = _max(_resolve_args(others, bindings)) if others else 0.0
        # w(u) = cap - max(floor, u): constant below floor, linear to cap, 0 after
        pieces_lo, pieces_hi = max(lo, 0.0), min(hi, self.cap)
        if np.ndim(floor):  # a batch of floors: pieces, of which some are empty
            knee = np.clip(floor, pieces_lo, pieces_hi)
            return [(pieces_lo, knee, (np.maximum(self.cap - floor, 0.0),)),
                    (knee, pieces_hi, (self.cap, -1.0))]
        if floor >= self.cap:
            return None
        breaks, coeffs = [pieces_lo], []
        knee = min(max(floor, pieces_lo), pieces_hi)
        if knee > pieces_lo:
            breaks.append(knee)
            coeffs.append((self.cap - floor,))
        if pieces_hi > knee:
            breaks.append(pieces_hi)
            coeffs.append((self.cap, -1.0))
        if not coeffs:
            return None
        return PiecewisePoly(tuple(breaks), tuple(coeffs))

    def sexpr(self, inner, rename) -> str:
        return f"(ramp {_fmt(self.cap)} (max {_args(self.args, rename)}))"


@_kind
class Indicator(_Node):
    """1_{[lo, hi]}(var)."""

    var: str
    lo: float
    hi: float
    pw = True

    def times(self):
        return (self.lo, self.hi)

    def free_vars(self, inner, _):
        return {self.var}

    def step(self, x, h, path, bindings):
        v = _resolve_args([self.var], bindings)[0]
        if np.ndim(v):
            return np.where((self.lo <= v) & (v <= self.hi), 1.0, 0.0)
        return 1.0 if self.lo <= v <= self.hi else 0.0

    def pwpoly(self, ivar, lo, hi, bindings):
        aa, bb = max(self.lo, lo), min(self.hi, hi)
        return PiecewisePoly.indicator(aa, bb) if aa < bb else None

    def sexpr(self, inner, rename) -> str:
        return f"(ind {_name(self.var, rename)} {_fmt(self.lo)} {_fmt(self.hi)})"


@_kind
class PolyInVar(_Node):
    """Polynomial in a free variable, ascending coefficients."""

    coeffs: tuple
    var: str
    pw = True

    def free_vars(self, inner, _):
        return {self.var}

    def step(self, x, h, path, bindings):
        v = _resolve_args([self.var], bindings)[0]
        out = np.polynomial.polynomial.polyval(v, np.asarray(self.coeffs))
        return out if np.ndim(v) else float(out)

    def pwpoly(self, ivar, lo, hi, bindings):
        return PiecewisePoly.from_poly(self.coeffs, lo, hi) if lo < hi else None

    def sexpr(self, inner, rename) -> str:
        cs = " ".join(_fmt(c) for c in self.coeffs)
        return f"(poly {_name(self.var, rename)} {cs})"


@_kind
class HermitePoly(_Node):
    """h_n(arg) in the probabilists' normalization, kept unexpanded for stability."""

    degree: int
    arg: Expr

    def operands(self):
        return (self.arg,)

    def derivative(self, ds, at):
        return make_product([Const(float(self.degree)),
                             hermite_factor(self.degree - 1, self.arg), ds[0]])

    def frozen(self, fs, r):
        return hermite_factor(self.degree, fs[0])

    def step(self, x, h, path, bindings):
        return hermite_eval(self.degree, x)

    def sexpr(self, inner, rename) -> str:
        return f"(hermite {self.degree} {inner[0]})"


@_kind
class Sum(_Node):
    terms: tuple[Expr, ...]
    combine = operator.add

    def operands(self):
        return self.terms

    def derivative(self, ds, at):
        return make_sum(ds)

    def frozen(self, fs, r):
        return make_sum(fs)

    def step(self, x, h, path, bindings):
        return 0.0  # the empty sum; evaluate folds the terms in one by one

    def sexpr(self, inner, rename) -> str:
        return "(+ " + " ".join(inner) + ")"


@_kind
class Product(_Node):
    factors: tuple[Expr, ...]
    combine = operator.mul

    def operands(self):
        return self.factors

    def derivative(self, ds, at):
        terms = []
        for i, d in enumerate(ds):
            if d is not ZERO:
                terms.append(make_product(self.factors[:i] + self.factors[i + 1:] + (d,)))
        return make_sum(terms)

    def frozen(self, fs, r):
        return make_product(fs)

    def step(self, x, h, path, bindings):
        return 1.0

    def sexpr(self, inner, rename) -> str:
        return "(* " + " ".join(inner) + ")"


@_kind
class Power(_Node):
    base: Expr
    exponent: int

    def __post_init__(self):
        if not isinstance(self.exponent, int) or self.exponent < 0:
            raise ValueError("Power exponent must be a nonnegative integer")

    def operands(self):
        return (self.base,)

    def derivative(self, ds, at):
        return make_product([Const(float(self.exponent)),
                             make_power(self.base, self.exponent - 1), ds[0]])

    def frozen(self, fs, r):
        return make_power(fs[0], self.exponent)

    def step(self, x, h, path, bindings):
        return x ** self.exponent

    def sexpr(self, inner, rename) -> str:
        return f"(^ {inner[0]} {self.exponent})"


@_kind
class Exp(_Node):
    arg: Expr

    def operands(self):
        return (self.arg,)

    def derivative(self, ds, at):
        return make_product([self, ds[0]])

    def frozen(self, fs, r):
        return make_exp(fs[0])

    def step(self, x, h, path, bindings):
        return np.exp(x)

    def sexpr(self, inner, rename) -> str:
        return f"(exp {inner[0]})"


@_kind
class PhiMoment(_Node):
    """Kernel integral int_lo^hi (prod factors)(ivar) phi_H(ivar, partner) d ivar.

    The value is the exact kernel moment, produced once every other
    variable is bound, for a whole batch of array bindings at once.  The
    factors are piecewise polynomial in ivar (their breakpoints may involve
    other free variables), save at most one time integral from ivar of
    power 1, which on one path is piecewise polynomial in ivar too
    (TimeIntB.pieces).  Any other factor that reads the path raises
    UnsupportedNodeError: the exact moment of such a product, or of a higher
    power, loses digits on narrow grid cells far from the partner.
    """

    factors: tuple[Expr, ...]
    ivar: str
    lo: float
    hi: float
    partner: str

    def children(self):
        return self.factors

    def times(self):
        return (self.lo, self.hi)

    def free_vars(self, inner, _):
        out = set().union(*inner)
        out.add(self.partner)
        out.discard(self.ivar)
        return out

    def derivative(self, ds, at):
        if not all(f.pw for f in self.factors):
            raise UnsupportedNodeError(
                "no derivative of a kernel integral with factors outside "
                "the piecewise polynomials")
        return ZERO

    def frozen(self, fs, r):
        return PhiMoment(tuple(freeze(f, r) for f in self.factors),
                         self.ivar, self.lo, self.hi, self.partner)

    def step(self, x, h, path, bindings):
        if h is None:
            raise EvalError("Hurst index required to evaluate a kernel integral")
        scale_val, ws = _factor_forms(self.factors, self.ivar, self.lo, self.hi,
                                      path, bindings)
        if ws is None:
            return 0.0
        ws = [list(w.pieces()) if isinstance(w, PiecewisePoly) else w for w in ws]
        v = _resolve_args([self.partner], bindings)[0]
        return scale_val * pieces_phi_moment(ws, self.lo, self.hi, v, h)

    def sexpr(self, inner, rename) -> str:
        return (f"(phimom {_name(self.partner, rename)} "
                f"{_name(self.ivar, rename)} {_fmt(self.lo)} {_fmt(self.hi)} "
                f"({' '.join(inner)}))")


Expr = Union[Const, FbmSample, WienerInt, TimeIntB, RampMax, Indicator,
             PolyInVar, HermitePoly, Sum, Product, Power, Exp, PhiMoment]

ZERO = Const(0.0)
ONE = Const(1.0)


# ---------------------------------------------------------------------------
# smart constructors (constant folding only, no deeper rewriting)


def fbm_sample(t: float) -> Expr:
    t = float(t)
    if t < 0.0:
        raise ValueError("sample times must be >= 0")
    return ZERO if t == 0.0 else FbmSample(t)


def _split_args(args: Iterable) -> tuple:
    """Canonicalize a max() argument list: constants folded, names sorted."""
    consts, names = [], []
    for a in args:
        if isinstance(a, str):
            names.append(a)
        else:
            consts.append(float(a))
    out = ([max(consts)] if consts else []) + sorted(set(names))
    if not out:
        raise ValueError("empty max() argument list")
    return tuple(out)


def ramp_max(cap: float, args: Iterable) -> Expr:
    args = _split_args(args)
    cap = float(cap)
    if all(not isinstance(a, str) for a in args):
        return Const(max(0.0, cap - args[0]))
    if not isinstance(args[0], str) and args[0] >= cap:
        return ZERO
    return RampMax(cap, args)


def time_int_b(lower: Iterable, upper: float, power: int = 1) -> Expr:
    """int_{max(lower)}^{upper} B_s^power ds; power 0 gives the ramp."""
    if power == 0:
        return ramp_max(upper, lower)
    lower = _split_args(lower)
    upper = float(upper)
    if upper <= 0.0 or not isinstance(lower[0], str) and lower[0] >= upper:
        return ZERO
    return TimeIntB(lower, upper, power)


def make_sum(terms: Iterable[Expr]) -> Expr:
    flat = []
    const = 0.0
    for t in terms:
        for u in t.terms if isinstance(t, Sum) else (t,):
            if isinstance(u, Const):
                const += u.value
            else:
                flat.append(u)
    if const != 0.0 or not flat:
        flat.append(Const(const))
    return flat[0] if len(flat) == 1 else Sum(tuple(flat))


def make_product(factors: Iterable[Expr]) -> Expr:
    flat = []
    const, lead = 1.0, ONE  # lead: a factor that is the node Const(const), if any
    for f in factors:
        for u in f.factors if isinstance(f, Product) else (f,):
            if isinstance(u, Const):
                const *= u.value
                if u.value == const:
                    lead = u
            else:
                flat.append(u)
    if const == 0.0:
        return ZERO
    if const != 1.0:
        flat.insert(0, lead if lead.value == const else Const(const))
    if not flat:
        return ONE
    return flat[0] if len(flat) == 1 else Product(tuple(flat))


def make_power(base: Expr, exponent: int) -> Expr:
    exponent = int(exponent)
    if exponent == 0:
        return ONE
    if exponent == 1:
        return base
    if isinstance(base, Const):
        return Const(base.value ** exponent)
    return Power(base, exponent)


def make_exp(arg: Expr) -> Expr:
    if isinstance(arg, Const):
        return Const(math.exp(arg.value))
    return Exp(arg)


def scale(expr: Expr, c: float) -> Expr:
    return make_product([Const(float(c)), expr])


def hermite_factor(degree: int, arg: Expr) -> Expr:
    if degree == 0:
        return ONE
    if degree == 1:
        return arg
    return HermitePoly(degree, arg)


def collect_terms(expr: Expr) -> Expr:
    """Combine sum terms that agree up to a constant factor.

    Repeated differentiation of products grows sums exponentially unless
    duplicates produced by the product rule are merged.  A term's bucket is
    keyed by the tuple of its non-constant factors: nodes are interned, so
    equal non-constant parts have equal tuples, and no node is built to
    look a bucket up.  A term alone in its bucket is kept as it is, which
    for the terms of a sum built by make_sum is the node a rebuild would
    give; only a bucket that merges builds a node.  A sum with nothing to
    merge comes back itself.  Buckets keep the order of first occurrence.
    """
    if not isinstance(expr, Sum):
        return expr
    buckets = {}
    for t in expr.terms:
        key = t.factors if isinstance(t, Product) else (t,)
        coeff, key = ((key[0].value, key[1:]) if isinstance(key[0], Const)
                      else (1.0, key))
        acc = buckets.get(key)
        if acc is None:
            buckets[key] = [coeff, t]
        else:
            acc[0] += coeff
            acc[1] = None
    if len(buckets) == len(expr.terms):
        return expr
    return make_sum([make_product((Const(float(c)), *key)) if t is None else t
                     for key, (c, t) in buckets.items() if c != 0.0])


# ---------------------------------------------------------------------------
# structural queries and the DAG fold


def _fold(expr: Expr, rule: str, arg=None, kids: str = "operands", done=None):
    """node.rule([its results at node.kids()], arg) once per distinct node,
    operands first and left to right; the result at expr."""
    if done is None:
        done = {}
    out = done.get(id(expr))
    if out is None:
        ks = getattr(expr, kids)()
        if ks:
            ks = [_fold(c, rule, arg, kids, done) for c in ks]
        out = done[id(expr)] = getattr(expr, rule)(ks, arg)
    return out


def nodes(expr: Expr):
    """Every distinct node of the DAG once, in pre-order."""
    seen = set()
    stack = [expr]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            yield node
            stack.extend(reversed(node.children()))


def fbm_times(expr: Expr) -> set:
    """Times of every B_t sample in the expression (the random kind that is
    discrete)."""
    return {n.t for n in nodes(expr) if n.random and n.discrete}


def times(expr: Expr) -> set:
    """Every time constant in the expression: sample times, integral limits,
    Wiener-weight breakpoints inside the limits, ramp caps, the constant
    arguments of max() and indicator and kernel-integral limits."""
    return set().union(*[n.times() for n in nodes(expr)])


def is_discrete(expr: Expr) -> bool:
    """True when the only random dependence is through B_t samples."""
    return all(n.discrete for n in nodes(expr))


def is_deterministic(expr: Expr) -> bool:
    return not any(n.random for n in nodes(expr))


def free_vars(expr: Expr) -> set:
    """Variable names left unbound; kernel integrals bind their ivar."""
    return _fold(expr, "free_vars", kids="children")


# ---------------------------------------------------------------------------
# the pathwise derivative, in a free variable or at a grid time


def directional(expr: Expr, at: "str | float", done: "dict | None" = None) -> Expr:
    """Fractional pathwise derivative D_at.

    A variable name gives the Malliavin derivative in that free variable,
    ranging over [0, horizon]; a time tau gives the grid-time derivative,
    d/dB applied to every sample at time >= tau.  Only samples and Wiener
    integrals need to tell the two apart: the ramps of time integrals fold
    a constant direction on construction.  Each distinct node of the DAG is
    differentiated once.  done, {id(node): D_at node}, carries that memo
    across calls in the same direction; it is keyed by identity, so its
    owner must keep every expr it passed alive while it uses done.
    """
    return _fold(expr, "derivative", at, done=done)


# ---------------------------------------------------------------------------
# freezing: composition with the path stopped at r


def freeze(expr: Expr, r: float) -> Expr:
    """expr on the path stopped at r; each distinct node is frozen once."""
    r = float(r)
    if r < 0.0:
        raise ValueError("freeze time must be >= 0")
    return _fold(expr, "frozen", r)


# ---------------------------------------------------------------------------
# time grids and paths


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing finite times (t_0, ..., t_J) with t_0 = 0."""

    times: tuple

    def __post_init__(self):
        ts = tuple(float(t) for t in self.times)
        if len(ts) < 2 or ts[0] != 0.0 or not all(0.0 <= t < math.inf for t in ts):
            raise ValueError(f"grid times {ts} must be finite and >= 0, "
                             "from 0, with at least one cell")
        for a, b in zip(ts, ts[1:]):
            if not (a < b):
                raise ValueError("grid times must be strictly increasing")
        object.__setattr__(self, "times", ts)

    @property
    def n_cells(self) -> int:
        return len(self.times) - 1

    @property
    def final_time(self) -> float:
        return self.times[-1]

    def locate(self, r: float) -> int:
        """1-based index of the cell whose right-closed interval contains r.

        r = 0 belongs to the first cell; interior grid points belong to the
        cell they terminate.
        """
        r = float(r)
        if r < 0.0 or r > self.final_time:
            raise ValueError(f"r = {r} outside [0, {self.final_time}]")
        return max(1, bisect.bisect_left(self.times, r))

    @classmethod
    def covering(cls, times: Iterable[float]) -> "TimeGrid":
        """Smallest grid carrying every time given, from 0; a negative, NaN
        or infinite time is an error, not a time to drop."""
        return cls(tuple(sorted({0.0, *map(float, times)})))

    def refine(self, k: int) -> "TimeGrid":
        """Subdivide every cell into k equal parts, keeping every grid time."""
        if k < 1:
            raise ValueError("refinement factor must be >= 1")
        out = [0.0]
        for a, b in zip(self.times, self.times[1:]):
            out += [a + (b - a) * j / k for j in range(1, k)] + [b]
        return TimeGrid(tuple(out))


class GridPath:
    """Path values on a fixed grid; values may be vectors (one entry per path).

    Lookup is strict: a time that is not exactly a grid time raises
    OffGridTimeError rather than interpolating.  Only the lower limit of
    trapezoid may fall between grid times.
    """

    def __init__(self, times, values):
        self.times = tuple(float(t) for t in times)
        self.values = np.asarray(values, dtype=float)
        if self.values.shape[-1] != len(self.times):
            raise ValueError("values last axis must match the number of times")
        self._index = {t: i for i, t in enumerate(self.times)}
        self._tails = {}  # (upper-limit index, power) -> integrals from each grid time

    def index_of(self, t: float) -> int:
        i = self._index.get(float(t))
        if i is None:
            raise OffGridTimeError(f"time {t} is not on the path grid")
        return i

    def value(self, t: float):
        return self.values[..., self.index_of(t)]

    def trapezoid(self, power: int, lo: float, hi: float):
        """Trapezoid rule of B^power from lo to the grid time hi.

        A lo between grid times starts the rule at lo, from the value of
        the path's linear interpolant there.
        """
        j = self.index_of(hi)
        i = self._index.get(float(lo))
        if i is None:
            i = bisect.bisect(self.times, lo)  # the first grid time after lo
            if not 0 < i <= j:
                raise ValueError("integral limits out of order")
            a, b = self.times[i - 1], self.times[i]
            left, right = self.values[..., i - 1], self.values[..., i]
            at_lo = left + (right - left) * ((lo - a) / (b - a))
            head = 0.5 * (_pow(at_lo, power) + _pow(right, power)) * (b - lo)
            return head + self.trapezoid(power, b, hi)
        if j < i:
            raise ValueError("integral limits out of order")
        ts = np.asarray(self.times[i:j + 1])
        return np.trapezoid(_pow(self.values[..., i:j + 1], power), ts, axis=-1)

    def integral_from(self, lo, hi: float, power: int):
        """int_lo^hi B^power ds on a single path for an array of lower limits,
        0 where lo >= hi: the trapezoid rule summed back from hi, a lo between
        grid times starting from the linear interpolant as in trapezoid."""
        j = self.index_of(hi)
        ts, ys = np.asarray(self.times[:j + 1]), self.values[:j + 1]
        tail = self._tail(j, power)
        if np.min(lo) < ts[0]:
            raise ValueError("integral limits out of order")
        k = np.minimum(np.searchsorted(ts, lo, side="right"), j)  # t_{k-1} <= lo < t_k
        a, b = ts[k - 1], ts[k]
        at_lo = ys[k - 1] + (ys[k] - ys[k - 1]) * ((lo - a) / (b - a))
        head = 0.5 * (_pow(at_lo, power) + _pow(ys[k], power)) * (b - lo)
        return np.where(lo < hi, head + tail[k], 0.0)

    def _tail(self, j: int, power: int):
        """Trapezoid rule of B^power on a single path from each grid time up
        to the grid time t_j (0 from t_j on), computed once."""
        tail = self._tails.get((j, power))
        if tail is None:
            ts, yp = np.asarray(self.times[:j + 1]), _pow(self.values[:j + 1], power)
            cells = np.diff(ts) * (yp[1:] + yp[:-1]) / 2.0
            tail = self._tails[j, power] = np.append(np.cumsum(cells[::-1])[::-1], 0.0)
        return tail

    def integral_pieces(self, floor, hi: float, power: int) -> list:
        """u -> integral_from(max(floor, u), hi, power) on a single path, as
        pieces (a, b, ascending coefficients in u): the constant
        integral_from(floor) below floor; on each grid cell [t_{m-1}, t_m]
        above it, 0.5 (L(u)^power + y_m^power)(t_m - u) + tail_m, with L the
        cell's linear interpolant and tail_m the rule from t_m; and nothing
        from hi on.  floor may be an array, which makes the limits arrays."""
        j = self.index_of(hi)
        ts, ys, tail = self.times, self.values, self._tail(j, power)
        poly = np.polynomial.polynomial
        out = [(ts[0], floor, (self.integral_from(floor, hi, power),))]
        for m in range(1, j + 1):
            slope = (ys[m] - ys[m - 1]) / (ts[m] - ts[m - 1])
            ends = poly.polyadd(poly.polypow((ys[m - 1] - slope * ts[m - 1], slope), power),
                                (_pow(ys[m], power),))
            c = 0.5 * poly.polymul(ends, (ts[m], -1.0))
            c[0] += tail[m]
            out.append((np.maximum(ts[m - 1], floor), ts[m], tuple(c)))
        return out

    def stieltjes(self, weight, lo: float, hi: float):
        """Riemann-Stieltjes sum sum f(midpoint) dB over grid cells in [lo, hi]."""
        i, j = self.index_of(lo), self.index_of(hi)
        ts = np.asarray(self.times[i:j + 1])
        mids = 0.5 * (ts[:-1] + ts[1:])
        f = weight(mids)
        db = np.diff(self.values[..., i:j + 1], axis=-1)
        return np.sum(f * db, axis=-1)


# ---------------------------------------------------------------------------
# evaluation

# paths of an ensemble evaluated at a time, and drawn at a time by fbm: a
# multiple of every dgemm row unroll, so a block's Cholesky product has the
# bits of the one-shot product
_PATH_BLOCK = 8192


def _resolve_args(args, bindings):
    out = []
    for a in args:
        if isinstance(a, str):
            if bindings is None or a not in bindings:
                raise UnboundVariableError(f"unbound variable '{a}'")
            b = bindings[a]
            out.append(np.asarray(b, dtype=float) if np.ndim(b) else float(b))
        else:
            out.append(float(a))
    return out


def _max(xs):
    """max of floats, elementwise once an array is among them."""
    return (max(xs) if all(type(x) is float for x in xs)
            else functools.reduce(np.maximum, xs))


def _pow(x, power: int):
    """x^power as a product of power copies of x, so x^2 is x * x."""
    return functools.reduce(operator.mul, [x] * power)


def _batch_shape(bindings) -> tuple:
    """The one shape of the array bindings; () when every binding is a scalar."""
    shapes = {np.shape(b) for b in (bindings or {}).values()} - {()}
    if len(shapes) > 1:
        raise EvalError(f"array bindings of different shapes {sorted(shapes)}")
    return max(shapes, default=())


def _factor_forms(factors, ivar, lo, hi, path, bindings):
    """(scale, forms): the product of the factors constant in ivar, and the
    forms of the others in order, pwpoly forms or the path form of a time
    integral from ivar; (0.0, None) once a form vanishes.  The only factor
    outside the piecewise polynomials it takes is one such time integral
    of power 1 (see PhiMoment)."""
    rest = [f for f in factors if not f.pw]
    if rest and not (len(rest) == 1 and isinstance(rest[0], TimeIntB)
                     and rest[0].power == 1 and ivar in rest[0].lower):
        raise UnsupportedNodeError(
            f"no exact kernel moment in '{ivar}' of the factors "
            f"{' '.join(to_sexpr(f) for f in rest)}: only one time integral "
            f"from '{ivar}', of power 1, may read the path")
    scale_val, forms = 1.0, []
    for f in factors:
        if not f.pw:
            forms.append(f.pieces(ivar, path, bindings))
        elif ivar not in f.free_vars((), None):  # a pw kind is a leaf
            scale_val = scale_val * f.step(None, None, None, bindings)
        elif (w := f.pwpoly(ivar, lo, hi, bindings)) is not None:
            forms.append(w)
        else:
            return 0.0, None
    return scale_val, forms


def _combine_pwpoly(factors, ivar, lo, hi, bindings):
    """Product of factor polynomials; (scale, PiecewisePoly|None)."""
    scale_val, forms = _factor_forms(factors, ivar, lo, hi, None, bindings)
    if forms == [] and lo < hi:
        forms = [PiecewisePoly.indicator(lo, hi)]
    poly = (functools.reduce(lambda p, w: p and p.mul(w), forms[1:], forms[0])
            if forms else None)
    return (scale_val, poly) if poly is not None and scale_val != 0.0 else (0.0, None)


def evaluate(expr: "Expr | list", h=None, path: "GridPath | None" = None,
             bindings: "dict | None" = None):
    """Evaluate on a path (scalar or vectorized across an ensemble).

    h is only needed for kernel integrals; bindings supply free
    variables.  A binding may be a numpy array: every array binding has
    one shape, each step works elementwise over it, and the value comes
    back in that shape.  A node that reads the path then needs a single
    path (values with one axis), so that an ensemble axis never broadcasts
    against the bindings; an ensemble raises EvalError there.  Scalar
    bindings run the same float operations as before arrays were allowed.
    Every time lookup is strict to the path grid.  Each
    distinct node is computed once, in the order a recursive walk would
    first reach it, and its value is dropped at its last use, so a shared
    subtree costs one evaluation and few values are alive at a time.  A
    list of roots gives the list of their values from one joint schedule,
    which computes a node shared by several roots once; a single root
    caches its schedule.  An ensemble of more than _PATH_BLOCK paths runs
    the schedule on one block of paths at a time, so the values alive at
    a time are few blocks wide; every step works path by path, so the
    joined values have the bits of one run over all paths.
    """
    shape = _batch_shape(bindings)
    if isinstance(expr, list):
        plan, root = _schedule(expr), None
    elif not isinstance(expr, _Node):
        raise UnsupportedNodeError(f"evaluate undefined for {type(expr).__name__}")
    else:
        plan, root = getattr(expr, "_plan", None), expr
        if plan is None:
            plan = _schedule((expr,), cached=expr)
            object.__setattr__(expr, "_plan", plan)
    if path is None or path.values.ndim < 2 or len(path.values) <= _PATH_BLOCK:
        out = _run(plan, root, h, path, bindings, shape)
    else:
        blocks = (GridPath(path.times, path.values[lo:lo + _PATH_BLOCK])
                  for lo in range(0, len(path.values), _PATH_BLOCK))
        runs = [_run(plan, root, h, b, bindings, shape) for b in blocks]
        # a root that reads no path is one scalar, the same in every block
        out = [vs[0] if all(np.ndim(v) == 0 for v in vs) else np.concatenate(vs)
               for vs in zip(*runs)]
    return out if root is None else out[0]


def _run(plan: tuple, root, h, path, bindings, shape) -> list:
    """Run a schedule; the values of its roots, broadcast to the shape of
    the array bindings if any.  A step's node None stands for root."""
    n_slots, steps, outs = plan
    vals = [None] * n_slots
    for node, slot, arg, last in steps:
        node = node or root
        if arg is None:
            vals[slot] = node.step(None, h, path, bindings)
        elif node.combine is None:
            vals[slot] = node.step(vals[arg], h, path, bindings)
        else:
            vals[slot] = node.combine(vals[slot], vals[arg])
        for j in last:
            vals[j] = None
    return [np.broadcast_to(vals[s], shape) if shape and np.shape(vals[s]) != shape
            else vals[s] for s in outs]


def _schedule(roots, cached=None) -> tuple:
    """(number of value slots, steps, root slots) evaluating roots.

    A step [node, slot, arg, last] stores in slot the value of a node
    without operands (arg None) or of a unary node applied to the value in
    slot arg, or combines the value in slot arg into the sum or product
    accumulating in slot, which starts from its empty value; last holds
    arg when no later step reads it and it is no root's slot.  The node
    cached appears as None, so a schedule cached on it holds no reference
    back to it.
    """
    slots, steps, reader = {}, [], {}
    outs = [_emit(e, slots, steps, reader) for e in roots]
    for s in outs:
        reader.pop(s, None)
    for arg, step in reader.items():
        step[3] = (arg,)
    if cached is not None:
        for step in steps:
            if step[0] is cached:
                step[0] = None
    return len(slots), steps, outs


def _emit(node: Expr, slots: dict, steps: list, reader: dict) -> int:
    """Append the steps computing node, unless already scheduled, with
    last left empty; reader maps each slot read to its latest reading step.
    The node's slot."""
    slot = slots.get(id(node))
    if slot is not None:
        return slot
    slot = slots[id(node)] = len(slots)
    ops = node.operands()
    if not ops or node.combine is not None:
        steps.append([node, slot, None, ()])
    for c in ops:
        steps.append(step := [node, slot, _emit(c, slots, steps, reader), ()])
        reader[step[2]] = step
    return slot


# ---------------------------------------------------------------------------
# expansion into a flat sum of products


def expand(expr: Expr) -> list:
    """Distribute products over sums; returns the flat list of product terms."""
    if isinstance(expr, Sum):
        out = []
        for t in expr.terms:
            out.extend(expand(t))
        return out
    if isinstance(expr, Product):
        parts = [expand(f) for f in expr.factors]
        terms = [ONE]
        for alternatives in parts:
            terms = [make_product([acc, alt]) for acc in terms for alt in alternatives]
        return terms
    return [expr]


def sum_terms(expr: Expr) -> tuple:
    return expr.terms if isinstance(expr, Sum) else (expr,)


def product_factors(term: Expr) -> tuple:
    return term.factors if isinstance(term, Product) else (term,)


# ---------------------------------------------------------------------------
# canonical S-expression serialization (golden-test format)


def _fmt(x: float) -> str:
    return repr(float(x))


def _name(n, rename) -> str:
    return rename.get(n, n) if rename else n


def _args(args, rename) -> str:
    # names stay sorted after renaming, so that relabeled arguments match
    names = sorted(_name(a, rename) for a in args if isinstance(a, str))
    return " ".join([_fmt(a) for a in args if not isinstance(a, str)] + names)


def to_sexpr(expr: Expr, rename: "dict | None" = None) -> str:
    """Canonical S-expression text; rename maps variable names (for matching)."""
    return _fold(expr, "sexpr", rename, kids="children")
