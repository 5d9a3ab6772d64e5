"""Conditional expectations by iterated second-order kernel integration.

For a functional F of the path on [0, T] and a conditioning time r, the
conditional expectation admits the series

    E~[F | F_r] = sum_{i >= 0} int_{r <= v_1 <= ... <= v_i <= T}
                  (A_{v_i} ... A_{v_1} F)(gamma^r)  dv_1 ... dv_i

where gamma^r is the path frozen at r (samples and integrals truncated to
what is observed by r) and each application of

    A_v(X) = 1/2 ( int_0^T du + int_0^r du )  D_u D_v X  phi_H(u, v)

removes two Malliavin derivatives.  The u-integrals commute with the
outstanding derivatives and with freezing, so level i needs only the frozen
2i-th derivative D_{u_i} D_{v_i} ... D_{u_1} D_{v_1} F (gamma^r): each u_k
is integrated against phi_H(u_k, v_k) over the averaged range and the v's
over the ordered simplex.  Four routes are tried per product term:

  * exact      - one v variable with piecewise-polynomial u and v factors:
                 closed-form double kernel moments;
  * factorized - the term splits into i identical single-level clusters g,
                 so the symmetric simplex integral collapses to
                 (int g dv)^i / i!;
  * separable  - the term splits into single-level clusters g_k of
                 piecewise-polynomial factors that are not all identical:
                 the simplex integral of g_1(v_1) ... g_i(v_i) is an
                 iterated running integral on the level's grid (below),
                 with G_1 and each g_k in closed form at the nodes, so it
                 costs O(i n) closed-form evaluations for n nodes;
  * quadrature - the rest: each u_k is paired with phi_H(u_k, v_k) as a
                 kernel integral, in closed form (for a whole array of v at
                 once) when the u factors are piecewise polynomial and by
                 singularity-absorbing panels otherwise.  At level 1 the
                 v-integrand is evaluated once on each of the level's two
                 grids, with v bound to the array of nodes; at levels 2 and
                 3 nested adaptive panels cover the simplex.

The level's grid has Gauss panels on [r, T], split at the level's break
times and graded toward them, and comes with its refinement, every panel
bisected.  The gap between the two, relative to the integral of the
absolute integrand, is the separable and level-1 quadrature error; a gap
above rel_tol raises EngineError.

Terms outside all four routes raise EngineError.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .functional import (
    Expr,
    GridPath,
    PhiMoment,
    ZERO,
    _combine_pwpoly,
    collect_terms,
    directional,
    evaluate,
    expand,
    free_vars,
    freeze,
    is_deterministic,
    make_product,
    make_sum,
    product_factors,
    scale,
    sum_terms,
    times,
    to_sexpr,
)
from .kernel import Interval, _hval, phi_poly_moment, poly_rect_integral
from .quadrature import (PanelGrid, QuadratureError, bisected, graded_cuts,
                         graded_points, nested_simplex, simplex_product)
from .results import SeriesResult
from .special import beta_fn


class EngineError(RuntimeError):
    """A level integrand falls outside every implemented integration route."""


_MAX_SIMPLEX_DIM = 3


def _vname(k: int) -> str:
    return f"_v{k}"


def _uname(k: int) -> str:
    return f"_u{k}"


def second_derivative(x: Expr, k: int) -> Expr:
    """D_{u_k} D_{v_k} x with the level-k variable names."""
    d = collect_terms(directional(x, _vname(k)))
    return collect_terms(directional(d, _uname(k)))


def derivative_levels(f: Expr, order: int) -> list:
    """[F, D_{u_1}D_{v_1}F, ..., D_{u_order}D_{v_order} ... F], unfrozen."""
    out = [f]
    for k in range(1, order + 1):
        out.append(second_derivative(out[-1], k))
    return out


def _term_split(term: Expr, i: int):
    """Sort a product term's factors by the level variables they mention.

    Returns (s_facs, per_level, coupled): factors free of every level
    variable, per level-k the triple (u only, v only, u and v mixed), and
    factors tying several levels together.
    """
    s_facs, coupled = [], []
    per_level = [([], [], []) for _ in range(i)]
    for fac in product_factors(term):
        names = free_vars(fac)
        if not names:
            s_facs.append(fac)
            continue
        levels = {int(n[2:]) for n in names}
        if len(levels) > 1:
            coupled.append(fac)
            continue
        k = levels.pop()
        kinds = {n[1] for n in names}
        slot = 2 if kinds == {"u", "v"} else (0 if kinds == {"u"} else 1)
        per_level[k - 1][slot].append(fac)
    return s_facs, per_level, coupled


def _cluster_polys(u_facs, v_facs, k, r, big_t):
    """(constant, u-polynomial on [0, T], v-polynomial on [r, T]) of a
    separable cluster of piecewise-polynomial factors; None if it vanishes."""
    su, wu = _combine_pwpoly(u_facs, _uname(k), 0.0, big_t, None)
    sv, wv = _combine_pwpoly(v_facs, _vname(k), r, big_t, None)
    return None if wu is None or wv is None else (su * sv, wu, wv)


def _cluster_value(polys, r, hh, v_hi=None):
    """Exact 1/2 (int_0^T + int_0^r) du int_r^T dv of a cluster; with v_hi
    the v-range ends at v_hi instead (an array of ends gives the integral
    up to each)."""
    if polys is None:
        return 0.0
    c, wu, wv = polys
    val = 0.5 * poly_rect_integral(wu, wv, hh, v_hi)
    if r > 0.0:
        wur = wu.restrict(0.0, r)
        if wur is not None:
            val += 0.5 * poly_rect_integral(wur, wv, hh, v_hi)
    return c * val


def _cluster_density(polys, r, big_t, hh, vs):
    """The v-integrand of _cluster_value at the nodes vs: the v-factors
    times the averaged kernel moment of the u-factors."""
    c, wu, wv = polys
    mom = phi_poly_moment(wu, Interval(0.0, big_t), vs, hh)
    if r > 0.0:
        mom += phi_poly_moment(wu, Interval(0.0, r), vs, hh)
    return 0.5 * c * wv(vs) * mom


def _canonical_cluster(u_facs, v_facs, k) -> tuple:
    """Level-independent fingerprint used to recognize identical clusters."""
    ren = {_uname(k): "u", _vname(k): "v"}
    return tuple(sorted(to_sexpr(f, ren) for f in u_facs + v_facs))


def _u_pair(facs, k, r, big_t) -> Expr:
    """Replace the u_k factors by the averaged phi_H(u_k, v_k) integral."""
    his = (big_t, r) if r > 0.0 else (big_t,)
    return make_sum([scale(PhiMoment(tuple(facs), _uname(k), 0.0, hi, _vname(k)), 0.5)
                     for hi in his])


def _attach(s_expr, integral, path, hh):
    """Multiply the variable-free prefactor by a computed v-integral."""
    if path is None:
        return scale(s_expr, integral)
    return integral * evaluate(s_expr, hh, path)


def _quadrature_value(term, i, r, big_t, hh, path, rel_tol, level):
    if i > _MAX_SIMPLEX_DIM:
        raise EngineError(
            f"level {i} falls back to simplex quadrature, implemented only "
            f"up to dimension {_MAX_SIMPLEX_DIM}")
    s_facs = [f for f in product_factors(term) if not free_vars(f)]
    facs = [f for f in product_factors(term) if free_vars(f)]
    for k in range(1, i + 1):
        ivar = _uname(k)
        uf = [f for f in facs if ivar in free_vars(f)]
        if not uf:
            raise EngineError(f"level-{i} term carries no {ivar} dependence")
        facs = [f for f in facs if ivar not in free_vars(f)]
        facs.append(_u_pair(uf, k, r, big_t))
    g_expr = make_product(facs)
    if not is_deterministic(g_expr):
        if path is None:
            raise EngineError(
                "stochastic simplex integrand has no symbolic route; supply a path")
        if np.ndim(path.values) > 1:
            raise EngineError(
                "stochastic simplex integrand supports single paths only")
    # the frozen path's times are <= r, so what is left are the kinks of
    # ramps, indicators and kernel moments
    breaks = sorted(c for c in times(g_expr) if r < c < big_t)

    def g(vs):
        b = {_vname(k + 1): float(vs[k]) for k in range(i)}
        return float(evaluate(g_expr, hh, path, b))

    # level 1 on the level's grid, one array evaluate per grid
    val = level.integral(g_expr, path, rel_tol) if i == 1 else \
        nested_simplex(g, r, big_t, i, breaks=breaks, rel_tol=rel_tol)
    return _attach(make_product(s_facs), val, path, hh), "quadrature"


# the separable route's grid: panels graded toward each end of an interval
# between break times, their size ratio, and Gauss nodes per panel
_GRADED, _RATIO, _NODES = 12, 0.25, 16


class _LevelGrid:
    """One level's Gauss panel grid and its refinement, for the separable
    simplex integrals at any level and the quadrature route at level 1.

    The grid has Gauss panels on [r, T], split at the level's break times
    and graded toward them, where the integrands have |v - c|^(2H-1) kinks;
    its refinement bisects every panel.  Both are built when a term first
    needs them.  Each distinct separable cluster is evaluated on both once:
    in v_1 as its exact running integral, in the other variables as its
    density; a level-1 quadrature integrand takes one array evaluate per
    grid.  error is the largest gap between the two grids' values,
    relative to the integral of the absolute integrand, over the terms so
    far, and None while no term has used the grid.
    """

    def __init__(self, prods, r, big_t, hh):
        self.prods, self.r, self.big_t, self.hh = prods, r, big_t, hh
        self.memo = {}
        self.error = None

    @functools.cached_property
    def grids(self):
        r, big_t = self.r, self.big_t
        breaks = sorted({c for t in self.prods for c in times(t) if r < c < big_t})
        cuts = graded_cuts([r, *breaks, big_t], _GRADED, _RATIO)
        return PanelGrid(cuts, _NODES), PanelGrid(bisected(cuts), _NODES)

    def _checked(self, vals, size, what, rel_tol):
        """The refined value, once its gap to the coarse one is within rel_tol."""
        err = float(abs(vals[1] - vals[0]) / size) if size > 0.0 else 0.0
        self.error = max(self.error or 0.0, err)
        if err > rel_tol:
            raise EngineError(f"{what} reached relative error {err:.3e}, "
                              f"above the tolerance {rel_tol:.3e}")
        return vals[1]

    def integral(self, g_expr, path, rel_tol):
        """int_r^T g(v_1) dv_1 of a level-1 integrand."""
        gs = [evaluate(g_expr, self.hh, path, {_vname(1): grid.nodes})
              for grid in self.grids]
        vals = [float(grid.integral(g)) for grid, g in zip(self.grids, gs)]
        return self._checked(vals, self.grids[1].integral(np.abs(gs[1])),
                             "level-1 quadrature", rel_tol)

    def _on(self, g, key, polys, first):
        memo_key = (g, key, first)
        if memo_key not in self.memo:
            vs = self.grids[g].nodes
            if first:
                out = _cluster_value(polys, self.r, self.hh, vs)
            else:
                out = _cluster_density(polys, self.r, self.big_t, self.hh, vs)
            self.memo[memo_key] = out
        return self.memo[memo_key]

    def separable(self, clusters, keys, rel_tol):
        """Integral of the product of the clusters over the ordered simplex."""
        if any(polys is None for polys in clusters):  # exactly 0: no gap
            return self._checked((0.0, 0.0), 0.0, "", rel_tol)
        vals = []
        for g, grid in enumerate(self.grids):
            gs = [self._on(g, key, polys, k == 0)
                  for k, (key, polys) in enumerate(zip(keys, clusters))]
            vals.append(simplex_product(gs[0], gs[1:], grid))
        size = simplex_product(np.abs(gs[0]), [np.abs(g) for g in gs[1:]], grid)
        return self._checked(vals, size, "separable simplex integral", rel_tol)


def _term_value(term, i, r, big_t, hh, path, rel_tol, level):
    """(value, route) for one frozen product term at level i >= 1."""
    s_facs, per_level, coupled = _term_split(term, i)
    if coupled or any(uv for _, _, uv in per_level) \
            or not all(f.pw for u, v, _ in per_level for f in u + v):
        return _quadrature_value(term, i, r, big_t, hh, path, rel_tol, level)
    keys = [_canonical_cluster(u, v, k + 1) for k, (u, v, _) in enumerate(per_level)]
    s_expr = make_product(s_facs)
    if len(set(keys)) == 1:
        u, v, _ = per_level[0]
        cluster = _cluster_value(_cluster_polys(u, v, 1, r, big_t), r, hh)
        if i == 1:
            return _attach(s_expr, cluster, path, hh), "exact"
        val = cluster ** i / math.factorial(i)
        return _attach(s_expr, val, path, hh), "factorized"
    clusters = [_cluster_polys(u, v, k + 1, r, big_t)
                for k, (u, v, _) in enumerate(per_level)]
    val = level.separable(clusters, keys, rel_tol)
    return _attach(s_expr, val, path, hh), "separable"


def _level_value(prods, i, r, big_t, hh, path, rel_tol):
    """(value, routes, error) of level i; error is the estimate of the
    level's grid, None when no term used it."""
    if i == 0:
        expr = collect_terms(make_sum(prods))
        return (expr if path is None else evaluate(expr, hh, path)), "evaluate", None
    if not prods:
        return (ZERO if path is None else 0.0), "vanishes", None
    vals, routes = [], set()
    level = _LevelGrid(prods, r, big_t, hh)
    for t in prods:
        v, route = _term_value(t, i, r, big_t, hh, path, rel_tol, level)
        vals.append(v)
        routes.add(route)
    if path is None:
        return collect_terms(make_sum(vals)), "+".join(sorted(routes)), level.error
    total = vals[0]
    for v in vals[1:]:
        total = total + v
    return total, "+".join(sorted(routes)), level.error


def exp_series(f: Expr, r: float, big_t: float, h, order: int,
               path: "GridPath | None" = None,
               rel_tol: float = 1e-9) -> SeriesResult:
    """Truncated conditional-expectation series for F given the path up to r.

    big_t is the declared horizon; every sample and integral in f must stay
    inside [0, big_t].  Exact routes are preferred term by term; rel_tol
    governs the quadrature fallbacks and bounds the error of the level's
    grid.  Without a path the terms come back as expressions in the
    observed samples (stochastic simplex integrands then raise
    EngineError).  diagnostics[i] records the routes taken and the number
    of product terms at level i, and under "error" the largest relative
    error the level's grid reached there (separable terms, and quadrature
    terms at level 1), if any term used it.
    """
    hh = _hval(h)
    r, big_t = float(r), float(big_t)
    if not 0.0 <= r <= big_t:
        raise ValueError(f"need 0 <= r <= horizon, got r={r}, horizon={big_t}")
    if order < 0:
        raise ValueError("series order must be >= 0")
    if free_vars(f):
        raise ValueError("functional must not contain free variables")
    if max(times(f), default=0.0) > big_t * (1.0 + 1e-12):
        raise ValueError("functional looks beyond the declared horizon")

    terms, sums, diags = [], [], []
    x = f
    running = None
    for i in range(order + 1):
        if i:
            x = second_derivative(x, i)
        frozen = collect_terms(make_sum(expand(freeze(x, r))))
        prods = [t for t in sum_terms(frozen) if t != ZERO]
        val, route, error = _level_value(prods, i, r, big_t, hh, path, rel_tol)
        terms.append(val)
        if path is None:
            running = val if running is None else collect_terms(make_sum([running, val]))
        else:
            running = val if running is None else running + val
        sums.append(running)
        diags.append({"order": i, "route": route, "n_terms": len(prods)})
        if error is not None:
            diags[-1]["error"] = error
    return SeriesResult(order=order, terms=terms, partial_sums=sums,
                        diagnostics=diags)


# the most values one block of v2 rows of the quadrature cross-check holds (1 MB)
_CIR_BLOCK = 1 << 17


def _cir_ordered_integrals(big_t, hh, refine):
    """(I1, I2, I3) of cir_fourth_order_integral on one tensor-product Gauss
    grid, or on it with every panel bisected when refine."""
    p = 2.0 * hh - 1.0
    kappa = 1.0 / p
    k2 = hh * p  # phi_H(u, v) = k2 |u - v|^(2H-2)
    # v2 on [0, T], graded toward 0 (the integrand is smooth at T); s = v1 / v2
    # and y = x / v1^p on [0, 1], graded toward both ends (y^kappa steepens
    # at 1 as H falls to 1/2)
    g2, gs, gy = (PanelGrid(bisected(cuts) if refine else cuts, 8) for cuts in (
        graded_points(0.0, big_t, 3, ratio=0.15),
        graded_cuts([0.0, 1.0], 8, 0.2),
        graded_cuts([0.0, 1.0], 3, 0.15)))
    # u = v1 - x^kappa with x = v1^p y, so x^kappa = v1 y^kappa and the
    # innermost du phi_H(u, v1) becomes hh v1^p dy
    rest = 1.0 - gy.nodes ** kappa

    def m0(a, b, v2):
        # int_a^b phi_H(u, v2) du for 0 <= a <= b <= v2
        return hh * ((v2 - a) ** p - (v2 - b) ** p)

    def m1(a, b, v2):
        # int_a^b u phi_H(u, v2) du via the elementary antiderivative
        def anti(u):
            return k2 * ((v2 - u) ** (2.0 * hh) / (2.0 * hh)
                         - v2 * (v2 - u) ** p / p)

        return anti(b) - anti(a)

    def inner1(v1, v2):
        # innermost u2-integral exact, u1 substituted
        e1, e2 = v1[..., None, None], v2[..., None, None]
        u1 = e1 * rest
        g = ((big_t - u1) + 2.0 * (big_t - e1)) * (e2 ** p - (e2 - u1) ** p)
        return hh * hh * v1 ** p * (big_t - v2) * gy.integral(g)

    def inner2(v1, v2):
        c0 = big_t * (big_t - v2) + 2.0 * (big_t - v1) * (big_t - v2)
        c1 = -(big_t - v2)
        exact = hh * v1 ** p * (c0 * m0(0.0, v1, v2) + c1 * m1(0.0, v1, v2))
        # the piece carrying (v1 - u2)^(2H-1) has no closed form; substitute
        e1, e2 = v1[..., None, None], v2[..., None, None]
        u2 = e1 * rest
        g = (e1 - u2) * (e2 - u2) ** (2.0 * hh - 2.0) \
            * (c0[..., None, None] + c1[..., None, None] * u2)
        return exact - hh * k2 * kappa * v1 ** p * gy.integral(g)

    def inner3(v1, v2):
        c0 = 2.0 * big_t * (big_t - v2) + (big_t - v1) * (big_t - v2)
        c1 = -2.0 * (big_t - v2)
        return hh * v1 ** p * (c0 * m0(v1, v2, v2) + c1 * m1(v1, v2, v2))

    # v1 = s v2 maps the triangle v1 <= v2 to the unit square, jacobian v2
    v2s = g2.nodes.reshape(-1, 1, 1)
    rows = max(1, _CIR_BLOCK // (gs.nodes.size * gy.nodes.size))

    def integral(inner):
        vals = [vb.ravel() * gs.integral(inner(vb * gs.nodes, vb))
                for vb in np.split(v2s, range(rows, len(v2s), rows))]
        return 4.0 * g2.integral(np.concatenate(vals).reshape(g2.nodes.shape))

    return np.array([integral(inner) for inner in (inner1, inner2, inner3)])


def cir_fourth_order_integral(big_t: float, h, method: str = "closed",
                              rel_tol: float = 1e-7) -> tuple:
    """Ordered-domain pieces of the level-2 term for F = exp(-int_0^T B^2).

    The frozen fourth derivative of F is four times a sum of three ramp
    pairings; on {u_k at or below its partner v_k, v1 <= v2} the level-2
    double kernel integral splits by the position of u2 into

        I1 over 0 <= u2 <= u1 <= v1 <= v2 <= T with
           bracket (T - u1)(T - v2) + 2 (T - v1)(T - v2),
        I2 over 0 <= u1 <= u2 <= v1 <= v2 <= T with
           bracket (T - u2)(T - v2) + 2 (T - v1)(T - v2),
        I3 over 0 <= u1 <= v1 <= u2 <= v2 <= T with
           bracket 2 (T - u2)(T - v2) + (T - v1)(T - v2),

    each against 4 phi_H(u1, v1) phi_H(u2, v2).  All three are closed-form
    in Beta functions and scale as T^(4H+2).  method="quadrature"
    recomputes them as an independent cross-check of the algebra: the
    innermost u-integral by exact kernel moments, the one against
    phi_H(u, v1) after x = (v1 - u)^(2H-1), and the rest on one
    tensor-product Gauss grid in v2, s = v1 / v2 and y = x / v1^(2H-1)
    (v2 graded toward 0, s and y toward both ends), evaluated a block of
    v2 rows at a time.  The same sums on the grid with every panel
    bisected on all three axes are returned; their gap to the first,
    relative to sum |I_k|, is the error estimate, and a gap above rel_tol
    raises QuadratureError carrying it in .achieved.
    """
    hh = _hval(h)
    big_t = float(big_t)
    if big_t <= 0.0:
        raise ValueError("horizon must be positive")
    tp = big_t ** (4.0 * hh + 2.0)
    if method == "closed":
        b = beta_fn(2.0 * hh + 1.0, 2.0 * hh + 2.0)
        i1 = (2.0 * hh - 1.0) * (hh + 2.0) \
            / ((2.0 * hh + 1.0) * (4.0 * hh + 2.0) * (4.0 * hh - 1.0)) * tp
        i2 = ((8.0 * hh * hh + 14.0 * hh - 1.0)
              / (4.0 * (4.0 * hh + 1.0) * (2.0 * hh + 1.0) * (4.0 * hh - 1.0))
              - (6.0 * hh + 5.0) / (2.0 * hh + 1.0) * b) * tp
        i3 = (6.0 * hh + 4.0) / (2.0 * hh + 1.0) * b * tp
        return i1, i2, i3
    if method != "quadrature":
        raise ValueError(f"unknown method '{method}'")
    coarse, fine = (_cir_ordered_integrals(big_t, hh, refine) for refine in (False, True))
    gap = float(np.sum(np.abs(fine - coarse)) / np.sum(np.abs(fine)))
    if gap > rel_tol:
        raise QuadratureError(
            f"fourth-order ordered integrals at H={hh} missed rel_tol {rel_tol:.3e}", gap)
    return tuple(float(v) for v in fine)


def assumption_b_sequence(f: Expr, r: float, big_t: float, n_max: int, h,
                          sup_norm) -> list:
    """Summability certificate (T^2H - r^2H)^i / (2^i i!) * sup_norm(2i).

    sup_norm(m) must bound, in L2, the sup over the derivative arguments of
    the frozen m-th Malliavin derivative of f.  Absolute convergence of the
    series follows whenever these terms are summable; their decay rate is
    the practical truncation guide.
    """
    hh = _hval(h)
    base = big_t ** (2.0 * hh) - r ** (2.0 * hh)
    return [base ** i / (2.0 ** i * math.factorial(i)) * float(sup_norm(2 * i))
            for i in range(n_max + 1)]
