"""Symbolic functionals of a fractional Brownian path and their calculus.

An Expr is an immutable expression DAG built from samples B_t, Wiener
integrals int f dB, time integrals int B ds and int B^2 ds, and the closure
of those under sums, products, integer powers, exp, and Hermite polynomials.
Nodes are hash-consed: constructing a node equal to a live one returns that
node, so equal subexpressions are shared, equality is identity, and the
derivative, freeze, evaluation and the structural queries each handle a
distinct node once.  Two operations drive everything else:

  * directional: the fractional pathwise derivative D_at, taken in one of
                 two directions.  With a variable name u it is the Malliavin
                 derivative in a free variable: D_u B_t = 1_{[0,t]}(u),
                 D_u int_a^b f dB = f(u) 1_{[a,b]}(u),
                 D_u int_a^b B ds = (b - max(a, u))^+.  With a grid time tau
                 it is the same derivative with u bound to tau, which
                 differentiates with respect to every sample at a time
                 >= tau.  Product, power and chain rules are shared.
  * freeze:      composition with the path stopped at r (B_s -> B_{min(s,r)});
                 time integrals split into their observed part on [a, min(b,r)]
                 plus B_{min(b,r)} times the remaining length.

Deterministic helper nodes (indicators, polynomials of a free variable,
ramps max(0, b - max(args)), deferred kernel moments) appear as derivative
output and as partially integrated kernel terms.  Evaluation on a path is
strict: sampling, or integrating between limits of the functional, at a
time that is not a grid point is an error, never an interpolation.  A time
integral whose lower limit is a bound variable, which ranges over
quadrature nodes, starts from the path's linear interpolant there.
"""

from __future__ import annotations

import bisect
import math
import weakref
from dataclasses import dataclass, fields
from typing import Iterable, Union

import numpy as np

from .kernel import Interval, PiecewisePoly, _hval, phi_poly_moment
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
# node kinds: an interned DAG


_interned = {}   # construction key -> weak reference to the live node


class _Ref(weakref.ref):
    __slots__ = ("key",)


def _forget(ref, table=_interned):
    """Drop a dead node's entry (the table is bound early for interpreter exit)."""
    if table.get(ref.key) is ref:
        del table[ref.key]


def _exact(value):
    """Key part of a plain field: nonzero floats as they are, anything else by
    repr, which keeps 0.0 apart from -0.0 and 1 apart from 1.0."""
    return value if type(value) is float and value else repr(value)


class _Node:
    """Base of every node kind.

    Nodes are interned: constructing a node structurally equal to a live one
    returns that node, so equality is identity and a node hashes by
    identity, in constant time, however large the subexpression below it.
    The intern table holds weak references, so an entry goes when its node
    does.  It is not locked: two threads building equal nodes at once may
    get two nodes, which collect_terms then keeps as separate terms.
    _plain lists the positions of the fields that hold plain values
    rather than nodes (see _kind); _plan caches the evaluation schedule of
    a node evaluated as a root.
    """

    __slots__ = ("_plan", "__weakref__")
    _plain = ()

    def __new__(cls, *args):
        plain = cls._plain
        key = (cls, *args, *[_exact(args[i]) for i in plain]) if plain else (cls, *args)
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


def _kind(cls):
    """Declare a node kind: a frozen, slotted dataclass compared by identity.
    Fields annotated with Expr hold nodes, the others plain values."""
    cls = dataclass(frozen=True, slots=True, eq=False, init=False)(cls)
    cls._plain = tuple(i for i, f in enumerate(fields(cls)) if "Expr" not in f.type)
    return cls


@_kind
class Const(_Node):
    value: float


@_kind
class FbmSample(_Node):
    """B_t for a fixed time t > 0 (t = 0 folds to the constant 0)."""

    t: float


@_kind
class WienerInt(_Node):
    """int_lo^hi f(s) dB_s with a deterministic piecewise-polynomial f."""

    weight: PiecewisePoly
    lo: float
    hi: float


@_kind
class TimeIntB(_Node):
    """int_{max(lower)}^{upper} B_s ds; lower mixes constants and variable names."""

    lower: tuple
    upper: float


@_kind
class TimeIntBSq(_Node):
    """int_lo^hi B_s^2 ds."""

    lo: float
    hi: float


@_kind
class RampMax(_Node):
    """max(0, cap - max(args)); args mix constants and variable names."""

    cap: float
    args: tuple


@_kind
class Indicator(_Node):
    """1_{[lo, hi]}(var)."""

    var: str
    lo: float
    hi: float


@_kind
class PolyInVar(_Node):
    """Polynomial in a free variable, ascending coefficients."""

    coeffs: tuple
    var: str


@_kind
class HermitePoly(_Node):
    """h_n(arg) in the probabilists' normalization, kept unexpanded for stability."""

    degree: int
    arg: Expr


@_kind
class Sum(_Node):
    terms: tuple[Expr, ...]


@_kind
class Product(_Node):
    factors: tuple[Expr, ...]


@_kind
class Power(_Node):
    base: Expr
    exponent: int

    def __post_init__(self):
        if not isinstance(self.exponent, int) or self.exponent < 0:
            raise ValueError("Power exponent must be a nonnegative integer")


@_kind
class Exp(_Node):
    arg: Expr


@_kind
class PhiMoment(_Node):
    """Deferred exact kernel moment int_lo^hi w(u) phi_H(u, partner) du.

    factors are deterministic functions of the integration variable ivar
    (their breakpoints may involve other free variables); the closed form
    is produced at evaluation time once every other variable is bound.
    """

    factors: tuple[Expr, ...]
    ivar: str
    lo: float
    hi: float
    partner: str


@_kind
class UIntegral(_Node):
    """Residual int_lo^hi (prod factors)(u) phi_H(u, partner) du, numeric at eval.

    Used when the integrand is not deterministic in u, so no closed form
    applies; evaluation falls back to singularity-split Gauss panels.
    """

    factors: tuple[Expr, ...]
    ivar: str
    lo: float
    hi: float
    partner: str


Expr = Union[Const, FbmSample, WienerInt, TimeIntB, TimeIntBSq,
             RampMax, Indicator, PolyInVar, HermitePoly, Sum, Product,
             Power, Exp, PhiMoment, UIntegral]

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


def time_int_b(lower: Iterable, upper: float) -> Expr:
    lower = _split_args(lower)
    upper = float(upper)
    if upper <= 0.0:
        return ZERO
    if not isinstance(lower[0], str) and lower[0] >= upper:
        return ZERO
    return TimeIntB(lower, upper)


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
    const = 1.0
    for f in factors:
        for u in f.factors if isinstance(f, Product) else (f,):
            if isinstance(u, Const):
                const *= u.value
            else:
                flat.append(u)
    if const == 0.0:
        return ZERO
    if const != 1.0:
        flat.insert(0, Const(const))
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


def is_pw_factor(expr: Expr) -> bool:
    """True for factor kinds with an exact piecewise-polynomial form in one variable."""
    return isinstance(expr, (Const, Indicator, PolyInVar, RampMax))


def phi_integral(factors, ivar: str, lo: float, hi: float, partner: str) -> Expr:
    """int_lo^hi prod(factors)(ivar) phi_H(ivar, partner) d ivar: a closed-form
    PhiMoment when every factor is piecewise polynomial, else a UIntegral."""
    node = PhiMoment if all(map(is_pw_factor, factors)) else UIntegral
    return node(tuple(factors), ivar, lo, hi, partner)


def collect_terms(expr: Expr) -> Expr:
    """Combine sum terms that agree up to a constant factor.

    Repeated differentiation of products grows sums exponentially unless
    duplicates produced by the product rule are merged; nodes are interned,
    so equal non-constant parts are the same node and key one bucket.
    """
    if not isinstance(expr, Sum):
        return expr
    buckets = {}
    for t in expr.terms:
        coeff, rest = 1.0, t
        if isinstance(t, Product) and isinstance(t.factors[0], Const):
            coeff = t.factors[0].value
            tail = t.factors[1:]
            rest = tail[0] if len(tail) == 1 else Product(tail)
        elif isinstance(t, Const):
            coeff, rest = t.value, ONE
        acc = buckets.get(rest)
        if acc is None:
            buckets[rest] = [coeff]
        else:
            acc[0] += coeff
    return make_sum([scale(r, c) for r, (c,) in buckets.items() if c != 0.0])


# ---------------------------------------------------------------------------
# structural queries and the DAG fold


def _operands(expr: Expr) -> tuple:
    """The children a node's value and derivative are computed from; the
    factors of kernel integrals are functions of their bound variable."""
    if isinstance(expr, Sum):
        return expr.terms
    if isinstance(expr, Product):
        return expr.factors
    if isinstance(expr, Power):
        return (expr.base,)
    if isinstance(expr, (Exp, HermitePoly)):
        return (expr.arg,)
    return ()


def children(expr: Expr) -> tuple:
    if isinstance(expr, (PhiMoment, UIntegral)):
        return expr.factors
    return _operands(expr)


def _fold(expr: Expr, rule, arg=None, kids=_operands, done=None):
    """rule(node, [its results at kids(node)], arg) once per distinct node,
    operands first and left to right; the result at expr."""
    if done is None:
        done = {}
    out = done.get(id(expr))
    if out is None:
        ks = kids(expr)
        if ks:
            ks = [_fold(c, rule, arg, kids, done) for c in ks]
        out = done[id(expr)] = rule(expr, ks, arg)
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
            stack.extend(reversed(children(node)))


def fbm_times(expr: Expr) -> set:
    """Times of every B_t sample in the expression."""
    return {n.t for n in nodes(expr) if isinstance(n, FbmSample)}


def times(expr: Expr) -> set:
    """Every time constant in the expression: sample times, integral limits,
    Wiener-weight breakpoints inside the limits, ramp caps, the constant
    arguments of max() and indicator and kernel-moment limits."""
    out = set()
    for n in nodes(expr):
        if isinstance(n, FbmSample):
            out.add(n.t)
        elif isinstance(n, WienerInt):
            out |= {n.lo, n.hi} | {b for b in n.weight.breaks if n.lo <= b <= n.hi}
        elif isinstance(n, (TimeIntBSq, Indicator, PhiMoment, UIntegral)):
            out |= {n.lo, n.hi}
        elif isinstance(n, TimeIntB):
            out |= {n.upper, *[a for a in n.lower if not isinstance(a, str)]}
        elif isinstance(n, RampMax):
            out |= {n.cap, *[a for a in n.args if not isinstance(a, str)]}
    return out


def is_discrete(expr: Expr) -> bool:
    """True when the only random dependence is through B_t samples."""
    return not any(isinstance(n, (WienerInt, TimeIntB, TimeIntBSq, UIntegral))
                   for n in nodes(expr))


def is_deterministic(expr: Expr) -> bool:
    return not any(isinstance(n, (FbmSample, WienerInt, TimeIntB, TimeIntBSq))
                   for n in nodes(expr))


def _free_vars_rule(expr: Expr, inner, _) -> set:
    out = set().union(*inner)
    if isinstance(expr, (Indicator, PolyInVar)):
        out.add(expr.var)
    elif isinstance(expr, TimeIntB):
        out |= {a for a in expr.lower if isinstance(a, str)}
    elif isinstance(expr, RampMax):
        out |= {a for a in expr.args if isinstance(a, str)}
    elif isinstance(expr, (PhiMoment, UIntegral)):
        out.add(expr.partner)
        out.discard(expr.ivar)
    return out


def free_vars(expr: Expr) -> set:
    """Variable names left unbound; kernel integrals bind their ivar."""
    return _fold(expr, _free_vars_rule, kids=children)


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
    return _fold(expr, _derivative, at, done=done)


def _derivative(expr: Expr, ds: list, at) -> Expr:
    """D_at of one node, given D_at of each of its operands."""
    if isinstance(expr, (Const, RampMax, Indicator, PolyInVar, PhiMoment)):
        return ZERO
    free = isinstance(at, str)
    if isinstance(expr, FbmSample):
        if free:
            return Indicator(at, 0.0, expr.t)
        return ONE if at <= expr.t else ZERO
    if isinstance(expr, WienerInt):
        if not free:
            if expr.lo <= at <= expr.hi:
                return Const(float(expr.weight(at)))
            return ZERO
        terms = []
        for a, b, c in expr.weight.pieces():
            aa, bb = max(a, expr.lo), min(b, expr.hi)
            if aa < bb:
                terms.append(make_product([PolyInVar(tuple(float(x) for x in c), at),
                                           Indicator(at, aa, bb)]))
        return make_sum(terms)
    if isinstance(expr, TimeIntB):
        return ramp_max(expr.upper, expr.lower + (at,))
    if isinstance(expr, TimeIntBSq):
        return scale(time_int_b((expr.lo, at), expr.hi), 2.0)
    if isinstance(expr, HermitePoly):
        return make_product([Const(float(expr.degree)),
                             hermite_factor(expr.degree - 1, expr.arg), ds[0]])
    if isinstance(expr, Sum):
        return make_sum(ds)
    if isinstance(expr, Product):
        terms = []
        for i, d in enumerate(ds):
            if d is not ZERO:
                terms.append(make_product(expr.factors[:i] + expr.factors[i + 1:] + (d,)))
        return make_sum(terms)
    if isinstance(expr, Power):
        return make_product([Const(float(expr.exponent)),
                             make_power(expr.base, expr.exponent - 1), ds[0]])
    if isinstance(expr, Exp):
        return make_product([expr, ds[0]])
    raise UnsupportedNodeError(f"directional undefined for {type(expr).__name__}")


# ---------------------------------------------------------------------------
# freezing: composition with the path stopped at r


def freeze(expr: Expr, r: float) -> Expr:
    """expr on the path stopped at r; each distinct node is frozen once."""
    r = float(r)
    if r < 0.0:
        raise ValueError("freeze time must be >= 0")
    return _fold(expr, _frozen, r)


def _frozen(expr: Expr, fs: list, r: float) -> Expr:
    """One node on the path stopped at r, given its frozen operands."""
    if isinstance(expr, (Const, RampMax, Indicator, PolyInVar, PhiMoment)):
        return expr
    if isinstance(expr, FbmSample):
        return fbm_sample(min(expr.t, r))
    if isinstance(expr, WienerInt):
        hi = min(expr.hi, r)
        if hi <= expr.lo:
            return ZERO
        return WienerInt(expr.weight, expr.lo, hi)
    if isinstance(expr, TimeIntB):
        c = min(expr.upper, r)
        observed = time_int_b(expr.lower, c)
        tail = make_product([fbm_sample(c),
                             ramp_max(expr.upper, expr.lower + (c,))])
        return make_sum([observed, tail])
    if isinstance(expr, TimeIntBSq):
        c = min(expr.hi, r)
        observed = TimeIntBSq(expr.lo, c) if c > expr.lo else ZERO
        tail = make_product([make_power(fbm_sample(c), 2),
                             Const(max(0.0, expr.hi - max(expr.lo, c)))])
        return make_sum([observed, tail])
    if isinstance(expr, HermitePoly):
        return hermite_factor(expr.degree, fs[0])
    if isinstance(expr, Sum):
        return make_sum(fs)
    if isinstance(expr, Product):
        return make_product(fs)
    if isinstance(expr, Power):
        return make_power(fs[0], expr.exponent)
    if isinstance(expr, Exp):
        return make_exp(fs[0])
    if isinstance(expr, UIntegral):
        return UIntegral(tuple(freeze(f, r) for f in expr.factors),
                         expr.ivar, expr.lo, expr.hi, expr.partner)
    raise UnsupportedNodeError(f"freeze undefined for {type(expr).__name__}")


# ---------------------------------------------------------------------------
# time grids and paths


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing times (t_0, ..., t_J) with t_0 = 0."""

    times: tuple

    def __post_init__(self):
        ts = tuple(float(t) for t in self.times)
        if len(ts) < 2 or ts[0] != 0.0:
            raise ValueError("grid must start at 0 and contain at least one cell")
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
        if r == 0.0:
            return 1
        for i in range(1, self.n_cells + 1):
            if self.times[i - 1] < r <= self.times[i]:
                return i
        raise AssertionError("unreachable")

    @classmethod
    def covering(cls, times: Iterable[float]) -> "TimeGrid":
        """Smallest grid carrying every positive time given, from 0."""
        return cls(tuple([0.0] + sorted({t for t in map(float, times) if t > 0.0})))

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

    def index_of(self, t: float) -> int:
        i = self._index.get(float(t))
        if i is None:
            raise OffGridTimeError(f"time {t} is not on the path grid")
        return i

    def value(self, t: float):
        return self.values[..., self.index_of(t)]

    def trapezoid(self, transform, lo: float, hi: float):
        """Trapezoid rule of transform(B) from lo to the grid time hi.

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
            head = 0.5 * (transform(at_lo) + transform(right)) * (b - lo)
            return head + self.trapezoid(transform, b, hi)
        if j < i:
            raise ValueError("integral limits out of order")
        ts = np.asarray(self.times[i:j + 1])
        vals = transform(self.values[..., i:j + 1])
        return np.trapezoid(vals, ts, axis=-1)

    def stieltjes(self, weight, lo: float, hi: float):
        """Riemann-Stieltjes sum sum f(midpoint) dB over grid cells in [lo, hi]."""
        i, j = self.index_of(lo), self.index_of(hi)
        ts = np.asarray(self.times[i:j + 1])
        mids = 0.5 * (ts[:-1] + ts[1:])
        f = weight(mids)
        db = np.diff(self.values[..., i:j + 1], axis=-1)
        return np.sum(f * db, axis=-1)


def path_from_dict(values: dict) -> GridPath:
    """Build a single path from a {time: value} mapping; 0 is added if missing."""
    d = {0.0: 0.0} | {float(t): float(v) for t, v in values.items()}
    ts = sorted(d)
    return GridPath(ts, [d[t] for t in ts])


# ---------------------------------------------------------------------------
# evaluation


def _resolve_args(args, bindings):
    out = []
    for a in args:
        if isinstance(a, str):
            if bindings is None or a not in bindings:
                raise UnboundVariableError(f"unbound variable '{a}'")
            out.append(float(bindings[a]))
        else:
            out.append(float(a))
    return out


def factor_to_pwpoly(factor: Expr, ivar: str, lo: float, hi: float,
                     bindings) -> "PiecewisePoly | float | None":
    """Concrete piecewise polynomial (in ivar over [lo, hi]) for one factor.

    Returns a float for factors constant in ivar and None for an identically
    zero restriction.
    """
    if not is_pw_factor(factor):
        raise UnsupportedNodeError(
            f"{type(factor).__name__} is not a deterministic factor in '{ivar}'")
    if isinstance(factor, Indicator) and factor.var == ivar:
        aa, bb = max(factor.lo, lo), min(factor.hi, hi)
        return PiecewisePoly.indicator(aa, bb) if aa < bb else None
    if isinstance(factor, PolyInVar) and factor.var == ivar:
        return PiecewisePoly.from_poly(factor.coeffs, lo, hi) if lo < hi else None
    if not (isinstance(factor, RampMax) and ivar in factor.args):
        return evaluate(factor, bindings=bindings)  # constant in ivar
    others = [a for a in factor.args if a != ivar]
    floor = max(_resolve_args(others, bindings)) if others else 0.0
    cap = factor.cap
    if floor >= cap:
        return None
    # w(u) = cap - max(floor, u): constant below floor, linear to cap, 0 after
    pieces_lo, pieces_hi = max(lo, 0.0), min(hi, cap)
    breaks, coeffs = [pieces_lo], []
    knee = min(max(floor, pieces_lo), pieces_hi)
    if knee > pieces_lo:
        breaks.append(knee)
        coeffs.append((cap - floor,))
    if pieces_hi > knee:
        breaks.append(pieces_hi)
        coeffs.append((cap, -1.0))
    if not coeffs:
        return None
    return PiecewisePoly(tuple(breaks), tuple(coeffs))


def _combine_pwpoly(factors, ivar, lo, hi, bindings):
    """Product of factor polynomials; (scale, PiecewisePoly|None)."""
    scale_val = 1.0
    poly = None
    for f in factors:
        res = factor_to_pwpoly(f, ivar, lo, hi, bindings)
        if res is None:
            return 0.0, None
        if isinstance(res, float):
            scale_val *= res
            if scale_val == 0.0:
                return 0.0, None
        else:
            poly = res if poly is None else poly.mul(res)
            if poly is None:
                return 0.0, None
    if poly is None:
        poly = PiecewisePoly.indicator(lo, hi) if lo < hi else None
        if poly is None:
            return 0.0, None
    return scale_val, poly


def evaluate(expr: "Expr | list", h=None, path: "GridPath | None" = None,
             bindings: "dict | None" = None):
    """Evaluate on a path (scalar or vectorized across an ensemble).

    h is only needed for deferred kernel nodes; bindings supply free
    variables.  Every time lookup is strict to the path grid.  Each
    distinct node is computed once, in the order a recursive walk would
    first reach it, and its value is dropped at its last use, so a shared
    subtree costs one evaluation and few values are alive at a time.  A
    list of roots gives the list of their values from one joint schedule,
    which computes a node shared by several roots once; a single root
    caches its schedule.
    """
    if isinstance(expr, list):
        return _run(_schedule(expr), None, h, path, bindings)
    if not isinstance(expr, _Node):
        raise UnsupportedNodeError(f"evaluate undefined for {type(expr).__name__}")
    plan = getattr(expr, "_plan", None)
    if plan is None:
        plan = _schedule((expr,), cached=expr)
        object.__setattr__(expr, "_plan", plan)
    return _run(plan, expr, h, path, bindings)[0]


def _run(plan: tuple, root, h, path, bindings) -> list:
    """Run a schedule; the values of its roots.  A step's node None stands
    for root."""
    n_slots, steps, outs = plan
    vals = [None] * n_slots
    for node, slot, arg, last in steps:
        node = node or root
        if arg is None:
            vals[slot] = _value(node, None, h, path, bindings)
        elif node.__class__ is Sum:
            vals[slot] = vals[slot] + vals[arg]
        elif node.__class__ is Product:
            vals[slot] = vals[slot] * vals[arg]
        else:
            vals[slot] = _value(node, vals[arg], h, path, bindings)
        for j in last:
            vals[j] = None
    return [vals[s] for s in outs]


def _schedule(roots, cached=None) -> tuple:
    """(number of value slots, steps, root slots) evaluating roots.

    A step (node, slot, arg, last) stores in slot the value of a node
    without operands (arg None) or of a unary node applied to the value in
    slot arg, or folds the value in slot arg into the sum or product
    accumulating in slot, which starts from its empty value; last holds
    arg when no later step reads it and it is no root's slot.  The node
    cached appears as None, so a schedule cached on it holds no reference
    back to it.
    """
    slots, steps = {}, []
    outs = [_emit(e, slots, steps) for e in roots]
    out, read = [], set(outs)
    for node, slot, arg in reversed(steps):
        last = () if arg is None or arg in read else (arg,)
        read.add(arg)
        out.append((None if node is cached else node, slot, arg, last))
    return len(slots), tuple(reversed(out)), outs


def _emit(node: Expr, slots: dict, steps: list) -> int:
    """Append the steps (node, slot, arg) computing node, unless already
    scheduled; its slot."""
    slot = slots.get(id(node))
    if slot is not None:
        return slot
    slot = slots[id(node)] = len(slots)
    ops = _operands(node)
    if not ops or isinstance(node, (Sum, Product)):
        steps.append((node, slot, None))
    for c in ops:
        steps.append((node, slot, _emit(c, slots, steps)))
    return slot


def _value(expr: Expr, x, h, path, bindings):
    """One node's value; x is the operand's value for a unary node."""
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, FbmSample):
        if path is None:
            raise EvalError("path required to evaluate B_t")
        return path.value(expr.t)
    if isinstance(expr, Sum):
        return 0.0  # the empty sum; evaluate folds the terms in one by one
    if isinstance(expr, Product):
        return 1.0
    if isinstance(expr, HermitePoly):
        return hermite_eval(expr.degree, x)
    if isinstance(expr, Power):
        return x ** expr.exponent
    if isinstance(expr, Exp):
        return np.exp(x)
    if isinstance(expr, Indicator):
        v = _resolve_args([expr.var], bindings)[0]
        return 1.0 if expr.lo <= v <= expr.hi else 0.0
    if isinstance(expr, PolyInVar):
        v = _resolve_args([expr.var], bindings)[0]
        return float(np.polynomial.polynomial.polyval(v, np.asarray(expr.coeffs)))
    if isinstance(expr, RampMax):
        return max(0.0, expr.cap - max(_resolve_args(expr.args, bindings)))
    if isinstance(expr, WienerInt):
        if path is None:
            raise EvalError("path required to evaluate a Wiener integral")
        return path.stieltjes(expr.weight, expr.lo, expr.hi)
    if isinstance(expr, TimeIntB):
        if path is None:
            raise EvalError("path required to evaluate a time integral")
        lo = max(_resolve_args(expr.lower, bindings))
        if lo >= expr.upper:
            return 0.0
        if lo in expr.lower:
            path.index_of(lo)  # only a bound variable may fall between grid times
        return path.trapezoid(lambda b: b, lo, expr.upper)
    if isinstance(expr, TimeIntBSq):
        if path is None:
            raise EvalError("path required to evaluate a time integral")
        path.index_of(expr.lo)
        return path.trapezoid(lambda b: b * b, expr.lo, expr.hi)
    if isinstance(expr, PhiMoment):
        if h is None:
            raise EvalError("Hurst index required to evaluate a kernel moment")
        v = _resolve_args([expr.partner], bindings)[0]
        scale_val, poly = _combine_pwpoly(expr.factors, expr.ivar,
                                          expr.lo, expr.hi, bindings)
        if poly is None or scale_val == 0.0:
            return 0.0
        return scale_val * phi_poly_moment(poly, Interval(expr.lo, expr.hi), v, h)
    if isinstance(expr, UIntegral):
        if h is None:
            raise EvalError("Hurst index required to evaluate a kernel integral")
        return _eval_u_integral(expr, h, path, bindings)
    raise UnsupportedNodeError(f"evaluate undefined for {type(expr).__name__}")


def _eval_u_integral(node: UIntegral, h, path, bindings):
    """Singularity-absorbing quadrature for a residual u-integral."""
    from .quadrature import phi_weighted_integral

    v = _resolve_args([node.partner], bindings)[0]
    integrand = make_product(list(node.factors))

    def f(us):
        out = []
        for u in np.atleast_1d(us):
            b2 = dict(bindings or {})
            b2[node.ivar] = float(u)
            out.append(np.asarray(evaluate(integrand, h, path, b2), dtype=float))
        return np.stack(out, axis=-1)

    # kinks sit where ramp/indicator breakpoints fall inside the range, and
    # at the path's grid times, where a time integral from u bends
    breaks = set() if path is None else set(path.times)
    for fac in node.factors:
        if isinstance(fac, Indicator):
            breaks |= {fac.lo, fac.hi}
        elif isinstance(fac, RampMax):
            breaks.add(fac.cap)
            breaks |= {_resolve_args([a], bindings)[0]
                       for a in fac.args if a != node.ivar}
    return phi_weighted_integral(f, node.lo, node.hi, v, _hval(h),
                                 breaks=sorted(breaks), rel_tol=1e-10)


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


def to_sexpr(expr: Expr, rename: "dict | None" = None) -> str:
    """Canonical S-expression text; rename maps variable names (for matching)."""
    if isinstance(expr, Const):
        return _fmt(expr.value)
    if isinstance(expr, FbmSample):
        return f"(B {_fmt(expr.t)})"
    if isinstance(expr, WienerInt):
        pieces = " ".join(
            f"({_fmt(a)} {_fmt(b)} {' '.join(_fmt(c) for c in cs)})"
            for a, b, cs in expr.weight.pieces())
        return f"(WI ({pieces}) {_fmt(expr.lo)} {_fmt(expr.hi)})"
    if isinstance(expr, TimeIntB):
        args = " ".join(_name(a, rename) if isinstance(a, str) else _fmt(a)
                        for a in expr.lower)
        return f"(IB (max {args}) {_fmt(expr.upper)})"
    if isinstance(expr, TimeIntBSq):
        return f"(IB2 {_fmt(expr.lo)} {_fmt(expr.hi)})"
    if isinstance(expr, RampMax):
        args = " ".join(_name(a, rename) if isinstance(a, str) else _fmt(a)
                        for a in expr.args)
        return f"(ramp {_fmt(expr.cap)} (max {args}))"
    if isinstance(expr, Indicator):
        return f"(ind {_name(expr.var, rename)} {_fmt(expr.lo)} {_fmt(expr.hi)})"
    if isinstance(expr, PolyInVar):
        cs = " ".join(_fmt(c) for c in expr.coeffs)
        return f"(poly {_name(expr.var, rename)} {cs})"
    if isinstance(expr, HermitePoly):
        return f"(hermite {expr.degree} {to_sexpr(expr.arg, rename)})"
    if isinstance(expr, Sum):
        return "(+ " + " ".join(to_sexpr(t, rename) for t in expr.terms) + ")"
    if isinstance(expr, Product):
        return "(* " + " ".join(to_sexpr(f, rename) for f in expr.factors) + ")"
    if isinstance(expr, Power):
        return f"(^ {to_sexpr(expr.base, rename)} {expr.exponent})"
    if isinstance(expr, Exp):
        return f"(exp {to_sexpr(expr.arg, rename)})"
    if isinstance(expr, PhiMoment):
        inner = " ".join(to_sexpr(f, rename) for f in expr.factors)
        return (f"(phimom {_name(expr.partner, rename)} {_name(expr.ivar, rename)} "
                f"{_fmt(expr.lo)} {_fmt(expr.hi)} ({inner}))")
    if isinstance(expr, UIntegral):
        inner = " ".join(to_sexpr(f, rename) for f in expr.factors)
        return (f"(uint {_name(expr.partner, rename)} {_name(expr.ivar, rename)} "
                f"{_fmt(expr.lo)} {_fmt(expr.hi)} ({inner}))")
    raise UnsupportedNodeError(f"to_sexpr undefined for {type(expr).__name__}")


# ---------------------------------------------------------------------------
# grid partial derivatives


def grid_partials(expr: Expr, grid: TimeGrid, q: tuple) -> Expr:
    """Iterated grid-time derivative D^q = D_{t_1}^{q_1} ... D_{t_J}^{q_J}.

    Requires a discrete functional whose sample times lie on the grid; each
    D_{t_i} differentiates with respect to every sample at time >= t_i.
    """
    if not is_discrete(expr):
        raise UnsupportedNodeError("grid partials require a discrete functional")
    stray = fbm_times(expr) - set(grid.times)
    if stray:
        raise ValueError(f"sample times {sorted(stray)} are not grid times")
    if len(q) != grid.n_cells:
        raise ValueError("multi-index length must equal the number of grid cells")
    out = expr
    for i, qi in enumerate(q):
        tau = grid.times[i + 1]
        for _ in range(int(qi)):
            out = directional(out, tau)
            if out == ZERO:
                return ZERO
    return out
