"""Independent oracles used by the test suite.

The quadrature oracles deliberately avoid the package's own closed forms and
quadrature code: they go through scipy's adaptive Gauss-Kronrod integrator
with explicit singular-point hints, so agreement is evidence and not
tautology.  The backward Taylor oracles build the series by the literal
enumeration over per-segment multi-indices, without the engine's shared
layers or its derivative memo.
"""

import math
import warnings
from dataclasses import dataclass
from itertools import product as iter_product

import numpy as np
from scipy import integrate

from fbmseries.functional import (ZERO, Const, Exp, FbmSample, GridPath,
                                  HermitePoly, Power, Product, Sum,
                                  collect_terms, directional, evaluate,
                                  fbm_times, hermite_factor, is_discrete,
                                  make_product, make_sum, scale)
from fbmseries.kernel import _hval, phi
from fbmseries.special import hermite_eval
from fbmseries.taylor import _package, _setup, compositions, psi_orders

warnings.filterwarnings("ignore", category=integrate.IntegrationWarning)


def quad_phi_moment(w, lo, hi, v, h, epsabs=1e-13, epsrel=1e-12):
    """int_lo^hi w(u) phi_H(u, v) du by adaptive quadrature, singularity-aware."""
    pts = [v] if lo < v < hi else None

    def f(u):
        if u == v:
            return 0.0
        return w(u) * phi(u, v, h)

    val, _ = integrate.quad(f, lo, hi, points=pts, limit=200,
                            epsabs=epsabs, epsrel=epsrel)
    return val


def quad_phi_moment_alg(w, lo, hi, v, h):
    """int_lo^hi w(u) phi_H(u, v) du with the singularity handled exactly.

    For interior v the |v - u|^(2H-2) factor is handed to the integrator
    as an algebraic endpoint weight, so only the smooth part is sampled;
    for exterior v the integrand is a plain (if steep) boundary layer.
    """
    p = 2.0 * h - 2.0
    k2 = h * (2.0 * h - 1.0)

    def alg(a, b, wvar):
        if b <= a:
            return 0.0
        val, _ = integrate.quad(w, a, b, weight="alg", wvar=wvar, limit=200,
                                epsabs=1e-14, epsrel=1e-13)
        return val

    if lo < v < hi:
        return k2 * (alg(lo, v, (0.0, p)) + alg(v, hi, (p, 0.0)))
    if v == lo:
        return k2 * alg(lo, hi, (p, 0.0))
    if v == hi:
        return k2 * alg(lo, hi, (0.0, p))
    val, _ = integrate.quad(lambda u: w(u) * abs(u - v) ** p, lo, hi,
                            limit=500, epsabs=1e-14, epsrel=1e-13)
    return k2 * val


def quad_rect(wu, u_lo, u_hi, wv, v_lo, v_hi, h, v_breaks=(),
              epsabs=1e-12, epsrel=1e-11):
    """Nested adaptive quadrature of iint wu(u) wv(v) phi_H(u, v) du dv."""

    def inner(v):
        return wv(v) * quad_phi_moment_alg(wu, u_lo, u_hi, v, h)

    cuts = sorted({v_lo, v_hi, u_lo, u_hi, *v_breaks})
    cuts = [c for c in cuts if v_lo <= c <= v_hi]
    if cuts[0] != v_lo:
        cuts.insert(0, v_lo)
    if cuts[-1] != v_hi:
        cuts.append(v_hi)
    total = 0.0
    for a, b in zip(cuts, cuts[1:]):
        val, _ = integrate.quad(inner, a, b, limit=100, epsabs=epsabs,
                                epsrel=epsrel)
        total += val
    return total


def mc_stderr(samples):
    """Sample mean and its standard error with a compensated sum."""
    x = np.asarray(samples, dtype=float)
    mean = float(np.mean(x))
    se = float(np.std(x, ddof=1) / np.sqrt(x.size))
    return mean, se


def tree_evaluate(expr, h=None, path=None, bindings=None):
    """Plain recursive evaluation that recomputes every occurrence of a
    shared subtree; the package's evaluate only serves the leaf kinds
    beyond constants and samples (integrals, free-variable helpers)."""

    def rec(e):
        return tree_evaluate(e, h, path, bindings)

    if isinstance(expr, Sum):
        acc = 0.0
        for t in expr.terms:
            acc = acc + rec(t)
        return acc
    if isinstance(expr, Product):
        acc = 1.0
        for f in expr.factors:
            acc = acc * rec(f)
        return acc
    if isinstance(expr, Power):
        return rec(expr.base) ** expr.exponent
    if isinstance(expr, Exp):
        return np.exp(rec(expr.arg))
    if isinstance(expr, HermitePoly):
        return hermite_eval(expr.degree, rec(expr.arg))
    if isinstance(expr, FbmSample):
        return path.value(expr.t)
    if isinstance(expr, Const):
        return expr.value
    return evaluate(expr, h, path, bindings)


def tree_size(expr):
    """Node count of the expression as a tree: shared subtrees count each time."""
    return 1 + sum(tree_size(c) for c in expr.children())


@dataclass(frozen=True)
class PsiSpec:
    """Iterated kernel integral over [r, t_j], applied k times."""

    r: float
    t_j: float
    k: int

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("psi order must be >= 0")
        if not (0.0 <= self.r <= self.t_j):
            raise ValueError("need 0 <= r <= t_j")


def iter_kernel_integral(x, a, b, k, h, t_final):
    """psi_k^{(a,b)} over the partition induced by x's own sample times."""
    if k < 0:
        raise ValueError("psi order must be >= 0")
    return psi_orders(x, a, b, k, h, t_final)[k]


def psi(f, spec, grid, h):
    """Iterated-integral operator for discrete functionals on a grid."""
    if not is_discrete(f):
        raise ValueError("psi requires a discrete functional")
    stray = fbm_times(f) - set(grid.times)
    if stray:
        raise ValueError(f"sample times {sorted(stray)} are not grid times")
    return iter_kernel_integral(f, spec.r, spec.t_j, spec.k, h, grid.final_time)


def reference_expansion(f, r, grid, order, h, path=None):
    """Literal enumeration over per-segment multi-indices.

    Same series as backward_taylor, built term by term from the nested
    composition without sharing subchains; exponentially slower, kept as an
    independent cross-check of the layered accumulation.
    """
    hh = _hval(h)
    pts, deltas, args = _setup(f, r, grid, order, hh)
    n_seg = len(pts) - 1

    term_exprs, n_counts = [], []
    for l in range(order + 1):
        contributions = []
        n_combos = 0
        for q in compositions(l, n_seg):
            dq = f
            for k in range(n_seg):
                for _ in range(q[k]):
                    dq = collect_terms(directional(dq, pts[k + 1]))
                    if dq == ZERO:
                        break
                if dq == ZERO:
                    break
            if dq == ZERO:
                continue
            for choices in iter_product(*(range(qk + 1) for qk in q)):
                n_combos += 1
                coeff = 1.0
                x = dq
                for k in range(n_seg - 1, -1, -1):
                    ik = choices[k]
                    m = q[k] - ik
                    coeff *= (-1.0) ** ik * deltas[k] ** (m * hh) / math.factorial(m)
                    x = iter_kernel_integral(x, pts[k], pts[k + 1], ik, hh,
                                             grid.final_time)
                    if x == ZERO:
                        break
                    if m > 0:
                        x = make_product([hermite_factor(m, args[k]), x])
                if x == ZERO:
                    continue
                contributions.append(scale(x, (-1.0) ** l * coeff))
        term_exprs.append(make_sum(contributions))
        n_counts.append(n_combos)
    return _package(order, term_exprs, n_counts, hh, path)


def path_from_dict(values: dict) -> GridPath:
    """Build a single path from a {time: value} mapping; 0 is added if missing."""
    d = {0.0: 0.0} | {float(t): float(v) for t, v in values.items()}
    ts = sorted(d)
    return GridPath(ts, [d[t] for t in ts])


# rows[n] holds the ascending-power coefficients of h_n, grown on demand
_HERMITE_ROWS = [[1], [0, 1]]


def hermite_coefficients(n: int) -> tuple:
    """Ascending-power integer coefficients of h_n, the exact reference that
    hermite_eval is checked against."""
    if n < 0:
        raise ValueError("Hermite degree must be >= 0")
    rows = _HERMITE_ROWS
    while len(rows) <= n:
        m = len(rows)
        row = [0] + rows[m - 1]
        for i, c in enumerate(rows[m - 2]):
            row[i] -= (m - 1) * c
        rows.append(row)
    return tuple(rows[n])


def hermite_generating_check(t: float, x: float, n_terms: int) -> float:
    """Gap |exp(tx - t^2/2) - sum_{n<=N} t^n/n! h_n(x)| for the partial sum."""
    target = math.exp(t * x - t * t / 2.0)
    acc = 0.0
    coef = 1.0
    for n in range(n_terms + 1):
        acc += coef * hermite_eval(n, x)
        coef *= t / (n + 1)
    return abs(target - acc)


def hermite_shift_identity_gap(l: int, x: float, y: float) -> float:
    """Gap |sum_k C(l,k) x^k h_{l-k}(y) - h_l(x + y)|; identically 0 in exact math."""
    acc = 0.0
    for k in range(l + 1):
        acc += math.comb(l, k) * x ** k * hermite_eval(l - k, y)
    return abs(acc - hermite_eval(l, x + y))
