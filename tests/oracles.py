"""Independent oracles used by the test suite.

The quadrature oracles deliberately avoid the package's own closed forms and
quadrature code: they go through scipy's adaptive Gauss-Kronrod integrator
with explicit singular-point hints, so agreement is evidence and not
tautology.  The backward Taylor oracles build the series by the literal
enumeration over per-segment multi-indices, without the engine's shared
layers or its derivative memo.  The convergence-bound sequences of the two
engines (assumption_a_sequence, assumption_b_sequence) and the unfrozen
derivative levels of the exponential formula (derivative_levels) live here
too, as only the tests use them.
"""

import math
import warnings
from dataclasses import dataclass
from itertools import product as iter_product

import numpy as np
from scipy import integrate

from fbmseries.expformula import second_derivative
from fbmseries.fbm import FbmEnsemble, covariance
from fbmseries.functional import (ZERO, Const, Exp, FbmSample, GridPath,
                                  HermitePoly, Power, Product, Sum,
                                  UnsupportedNodeError, collect_terms,
                                  directional, evaluate, fbm_times,
                                  hermite_factor, is_discrete, make_product,
                                  make_sum, scale)
from fbmseries.kernel import _hval, phi
from fbmseries.special import hermite_eval
from fbmseries.taylor import _package, _setup, psi_orders

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


def one_shot_ensemble(grid, h, cfg):
    """The ensemble drawn in one piece: every normal at once, one Cholesky
    product over all paths and a column of zeros stacked in front."""
    ts = grid.times[1:]
    cov = np.array([[covariance(s, t, h) for t in ts] for s in ts])
    z = np.random.Generator(np.random.Philox(key=cfg.seed)).standard_normal(
        (cfg.n_paths, len(ts)))
    vals = np.hstack([np.zeros((cfg.n_paths, 1)), z @ np.linalg.cholesky(cov).T])
    return FbmEnsemble(grid, vals, _hval(h), cfg.seed)


def compositions(total: int, parts: int):
    """All tuples of nonnegative ints of the given length summing to total."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def grid_partials(expr, grid, q: tuple):
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


def mc_sup_norm(f, grid, h, ensemble):
    """Monte-Carlo estimator of m -> || sup_{|w| = m} |D^w f| ||_{L2}.

    This is the sup_norm argument of assumption_a_sequence: the two
    together give the order-selection bound of the backward expansion.
    The supremum over derivative multi-indices is taken as a maximum over
    the enumerated multi-indices of total order m (ties in the grid-time
    derivative directions make this exhaustive for discrete functionals).
    """
    path = ensemble.as_grid_path()

    def norm(m: int) -> float:
        best = None
        for w in compositions(m, grid.n_cells):
            vals = np.abs(np.asarray(evaluate(grid_partials(f, grid, w),
                                              h=h, path=path), dtype=float))
            vals = np.broadcast_to(vals, (ensemble.n_paths,))
            best = vals if best is None else np.maximum(best, vals)
        return float(np.sqrt(np.mean(best ** 2)))

    return norm


def assumption_a_sequence(f, r: float, grid, n_max: int, h, sup_norm) -> list:
    """Convergence-bound sequence for the backward expansion.

    sup_norm(m) must return || sup_{|w| = m} |D^w f| ||_{L2}; the N-th bound is

        sum_{i=0}^{N} sup_norm(2N - i) C(N,i)^2 sqrt(i!) (N + J - 1)!
                      / (2^{N-i} (N!)^2)
                      (T^2H - r^2H + (T - r)^2H)^{N-i} (T - r)^{iH}

    and the expansion is justified when the sequence tends to zero.
    """
    hh = _hval(h)
    t_final = grid.final_time
    j = grid.n_cells
    base = t_final ** (2 * hh) - r ** (2 * hh) + (t_final - r) ** (2 * hh)
    out = []
    for n in range(n_max + 1):
        total = 0.0
        for i in range(n + 1):
            combinatorial = (math.comb(n, i) ** 2 * math.sqrt(math.factorial(i))
                             * math.factorial(n + j - 1)
                             / (2.0 ** (n - i) * math.factorial(n) ** 2))
            total += (sup_norm(2 * n - i) * combinatorial
                      * base ** (n - i) * (t_final - r) ** (i * hh))
        out.append(total)
    return out


def assumption_b_sequence(r: float, big_t: float, n_max: int, h, sup_norm) -> list:
    """Summability certificate (T^2H - r^2H)^i / (2^i i!) * sup_norm(2i).

    sup_norm(m) must bound, in L2, the sup over the derivative arguments of
    the frozen m-th Malliavin derivative of the functional.  Absolute convergence of the
    series follows whenever these terms are summable; their decay rate is
    the practical truncation guide.
    """
    hh = _hval(h)
    base = big_t ** (2.0 * hh) - r ** (2.0 * hh)
    return [base ** i / (2.0 ** i * math.factorial(i)) * float(sup_norm(2 * i))
            for i in range(n_max + 1)]


def derivative_levels(f, order: int) -> list:
    """[F, D_{u_1}D_{v_1}F, ..., D_{u_order}D_{v_order} ... F], unfrozen."""
    out = [f]
    for k in range(1, order + 1):
        out.append(second_derivative(out[-1], k))
    return out


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
