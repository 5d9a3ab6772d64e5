"""Independent quadrature oracles used by the test suite.

These deliberately avoid the package's own closed forms and quadrature code:
everything here goes through scipy's adaptive Gauss-Kronrod integrator with
explicit singular-point hints, so agreement is evidence and not tautology.
"""

import warnings

import numpy as np
from scipy import integrate

from fbmseries.functional import (Const, Exp, FbmSample, HermitePoly, Power,
                                  Product, Sum, children, evaluate)
from fbmseries.kernel import phi
from fbmseries.special import hermite_eval

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
    return 1 + sum(tree_size(c) for c in children(expr))
