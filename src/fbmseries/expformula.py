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
over the ordered simplex.  Five routes are tried per product term:

  * exact       - one v variable with piecewise-polynomial u and v factors:
                  closed-form double kernel moments;
  * factorized  - the term splits into i identical single-level clusters g,
                  so the symmetric simplex integral collapses to
                  (int g dv)^i / i!;
  * separable   - the term splits into single-level clusters g_k of
                  piecewise-polynomial factors that are not all identical:
                  the simplex integral of g_1(v_1) ... g_i(v_i) is an
                  iterated running integral on the level's grid (below),
                  with G_1 and each g_k in closed form at the nodes, so it
                  costs O(i n) closed-form evaluations for n nodes;
  * quadrature  - the rest at level 1: u_1 is paired with phi_H(u_1, v_1)
                  as a kernel integral, in closed form for a whole array of
                  v at once (the u factors are piecewise polynomial, or a
                  time integral from u_1, which on one path is piecewise
                  polynomial in u_1), and the v-integrand is evaluated once
                  on each of the level's two grids, with v bound to the
                  array of nodes;
  * symmetrized - the rest at levels i >= 2, when every factor holding
                  level variables is a ramp or an indicator (the prefactor
                  may read the path).  D^{2i} F is symmetric in its pairs of
                  arguments, so the simplex integral of the level's term set
                  is 1/i! times its integral over the cube [r, T]^i.  A ramp
                  (cap - max(c, x, y, ...))^+ is int_c^cap 1{x < s} 1{y < s} ... ds,
                  so at fixed s each level's (u_k, v_k) integral is a box
                  moment of the kernel in closed form; what is left is an
                  integral over the one or two s of the ramps that hold
                  several level variables, on a Gauss grid graded toward the
                  breaks and the diagonal, and its bisection.

The level's grid has Gauss panels on [r, T], split at the level's break
times and graded toward them, and comes with its refinement, every panel
bisected.  The gap between the two, relative to the integral of the
absolute integrand, is the error of the separable, level-1 quadrature and
symmetrized routes; a gap above rel_tol raises EngineError.

Terms outside all five routes raise EngineError, and exp_series checks
every level for them before it integrates any.
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
                         graded_points, simplex_product)
from .results import SeriesResult
from .special import beta_fn


class EngineError(RuntimeError):
    """A level integrand falls outside every implemented integration route."""


def _vname(k: int) -> str:
    return f"_v{k}"


def _uname(k: int) -> str:
    return f"_u{k}"


def second_derivative(x: Expr, k: int) -> Expr:
    """D_{u_k} D_{v_k} x with the level-k variable names."""
    d = collect_terms(directional(x, _vname(k)))
    return collect_terms(directional(d, _uname(k)))


def _separable(term: Expr, i: int):
    """Sort a product term's factors by the level variables they mention.

    Returns (s_facs, per_level): factors free of every level variable, and
    per level k the pair (u_k only, v_k only) of piecewise-polynomial
    factors; None when a factor ties variables together or is not
    piecewise polynomial, so that the term has no separable route.
    """
    s_facs = []
    per_level = [([], []) for _ in range(i)]
    for fac in product_factors(term):
        names = free_vars(fac)
        if not names:
            s_facs.append(fac)
            continue
        if len(names) > 1 or not fac.pw:
            return None
        name = names.pop()
        per_level[int(name[2:]) - 1][name[1] == "v"].append(fac)
    return s_facs, per_level


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


def _quadrature_value(term, r, big_t, hh, path, rel_tol, level):
    """Level 1 on the level's grid, u_1 paired with phi_H(u_1, v_1)."""
    s_facs = [f for f in product_factors(term) if not free_vars(f)]
    facs = [f for f in product_factors(term) if free_vars(f)]
    uf = [f for f in facs if _uname(1) in free_vars(f)]
    if not uf:
        raise EngineError(f"level-1 term carries no {_uname(1)} dependence")
    g_expr = make_product([f for f in facs if _uname(1) not in free_vars(f)]
                          + [_u_pair(uf, 1, r, big_t)])
    if not is_deterministic(g_expr):
        if path is None:
            raise EngineError(
                "stochastic simplex integrand has no symbolic route; supply a path")
        if np.ndim(path.values) > 1:
            raise EngineError(
                "stochastic simplex integrand supports single paths only")
    val = level.integral(g_expr, path, rel_tol)
    return _attach(make_product(s_facs), val, path, hh), "quadrature"


def _box_plan(term, i, r, big_t):
    """A level-i term of the symmetrized route, cut up for its integral.

    Returns (s_facs, scale, lims, weights): the factors free of level
    variables; the constant of the single-variable factors (0 when one
    vanishes); the s-range (floor, cap) of each ramp holding several level
    variables; and per variable u_1, v_1, u_2, ... the pair (piecewise
    polynomial on its range, index of its ramp or None).  Raises
    EngineError for a term outside the route.
    """
    s_facs, single, ramps = [], {}, []
    for f in product_factors(term):
        names = free_vars(f)
        if not names:
            s_facs.append(f)
        elif not f.pw:
            raise EngineError(
                f"no level-{i} route integrates the factor {to_sexpr(f)}: it reads "
                f"the path or is not piecewise polynomial in its level variables")
        elif len(names) == 1:
            single.setdefault(names.pop(), []).append(f)
        else:  # a ramp cap - max(floor, x, y, ...) = int_floor^cap 1{x, y, ... < s} ds
            ramps.append(f)
    slot = {n: j for j, f in enumerate(ramps) for n in free_vars(f)}
    if len(ramps) > 2 or len(slot.keys() | single.keys()) < sum(
            len(free_vars(f)) for f in product_factors(term)):
        raise EngineError(f"a level-{i} term needs an s-integral of dimension "
                          f"{len(ramps)} or holds a level variable in two factors; "
                          f"the symmetrized route takes dimension 1 or 2 and one "
                          f"factor per variable")
    scale_val, weights = 1.0, []
    for k in range(1, i + 1):
        for name, lo in ((_uname(k), 0.0), (_vname(k), r)):
            c, w = _combine_pwpoly(single.get(name, []), name, lo, big_t, None)
            scale_val *= c
            weights.append((w, slot.get(name)))
    lims = [(max([0.0] + [a for a in f.args if not isinstance(a, str)]), f.cap)
            for f in ramps]
    return s_facs, scale_val, lims, weights


def _check_level(prods, i, r, big_t):
    """Raise EngineError, before any integral runs, unless each level-i term
    (i >= 2) outside the exact, factorized and separable routes fits the
    symmetrized one, and relabeling the levels maps the set of those terms
    onto itself (the simplex-to-cube identity needs it).  Swaps of
    neighbouring levels generate every relabeling, so they are the ones
    tried.  At r = T every level >= 1 is 0, and nothing is checked."""
    terms = [t for t in prods if i >= 2 and r < big_t and _separable(t, i) is None]
    for t in terms:
        _box_plan(t, i, r, big_t)

    def key(k):  # the term set with levels k and k + 1 swapped (k = 0: as it is)
        ren = {f"{c}{a}": f"{c}{b}" for a, b in ((k, k + 1), (k + 1, k))
               for c in ("_u", "_v")} if k else None
        return sorted(tuple(sorted(to_sexpr(f, ren) for f in product_factors(t)))
                      for t in terms)

    if any(key(k) != key(0) for k in range(1, i)):
        raise EngineError(f"the level-{i} terms are not symmetric in the levels")


def _box_moment(wu, cu, wv, cv, r, big_t, hh):
    """1/2 (int_0^T + int_0^r) du int_r^T dv phi_H(u, v) wu(u) wv(v) 1{u < cu}
    1{v < cv} for piecewise polynomials wu, wv and arrays of caps cu, cv,
    a cap of None standing for none.  Two caps give int_0^A du int_r^B dv
    phi_H = R(A, B) - R(A, r), R the fBm covariance."""
    p, total = 2.0 * hh, 0.0
    for a in ((big_t, r) if r > 0.0 else (big_t,)):
        wua = wu.restrict(0.0, a)
        if wua is None:
            continue
        if cu is None or cv is None:
            # phi_H is symmetric, so a u-cap can be the v_hi of the swapped pair
            total = total + poly_rect_integral(
                *((wua, wv, hh, cv) if cu is None else (wv, wua, hh, cu)))
        else:  # wu and wv are then the indicators of the two ranges
            ca, cb = np.minimum(cu, a), np.clip(cv, r, big_t)
            total = total + 0.5 * (np.abs(ca - r) ** p + cb ** p - r ** p
                                   - np.abs(ca - cb) ** p)
    return 0.5 * total


# the symmetrized route's s-grid: panels graded toward each end of an
# interval between breaks, their size ratio, and Gauss nodes per panel
_S_GRADED, _S_RATIO, _S_NODES = 4, 0.2, 8


def _balanced(points) -> list:
    """The sorted points, with cuts added until no interval is more than
    three times as long as a neighbour, each twice the neighbour's length
    from their common end, down to 1e-4 of the whole span.  A kink just
    past the end of a long interval then is no nearer to its panels than
    their size, and one short interval adds at most about 13 cuts a side."""
    pts = sorted(points)
    for k in range(1, len(pts) - 1):
        left, right = pts[k] - pts[k - 1], pts[k + 1] - pts[k]
        if 3.0 * min(left, right) < max(left, right) \
                and min(left, right) > 1e-4 * (pts[-1] - pts[0]):
            return _balanced(pts + [pts[k] + 2.0 * (left if left < right else -right)])
    return pts


def _s_integral(g, lims, breaks, refine):
    """[int g, int |g|] over the box of the s-ranges lims (one or two), on
    Gauss panels between the sorted breaks (which hold the ends of lims),
    graded toward each; refine bisects every panel.
    g takes the list of s arrays.  In two dimensions each cell is split
    into two triangles, the images of the unit square under the Duffy maps
    (s_1, s_2) = c + (d_1 x, d_2 x y) and c + (d_1 x y, d_2 x), with their
    apex c on the diagonal s_1 = s_2, where |s_1 - s_2|^(2H) bends, when
    the cell has a corner there.  A bend at the apex then costs no more
    than one at a panel's end."""
    def axis(points):
        cuts = graded_cuts(points, _S_GRADED, _S_RATIO)
        return PanelGrid(bisected(cuts) if refine else cuts, _S_NODES)

    pts = [[b for b in breaks if lo <= b <= hi] for lo, hi in lims]
    if len(lims) == 1:
        grid = axis(pts[0])
        vals = g([grid.nodes])
        return grid.integral(np.stack([vals, np.abs(vals)]))
    unit = axis([0.0, 1.0])
    x, y = unit.nodes[:, :, None, None], unit.nodes[None, None]
    total = 0.0
    for lo1, hi1 in zip(pts[0], pts[0][1:]):
        for lo2, hi2 in zip(pts[1], pts[1][1:]):
            # the apex: a corner on the diagonal if there is one
            c1, c2 = next(((c, c) for c in (lo1, hi1) if c in (lo2, hi2)), (lo1, lo2))
            d1, d2 = lo1 + hi1 - 2.0 * c1, lo2 + hi2 - 2.0 * c2
            for s in ([c1 + d1 * x, c2 + d2 * x * y], [c1 + d1 * x * y, c2 + d2 * x]):
                vals = g(s) * abs(d1 * d2) * x
                total = total + unit.integral(unit.integral(np.stack([vals, np.abs(vals)])))
    return total


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

    def symmetrized(self, term, i, rel_tol):
        """(prefactor, value) of a level-i term of the symmetrized route.

        The level's term set is symmetric in the levels (_check_level), so
        its simplex integral is 1/i! times its integral over the cube
        [r, T]^i.  With each ramp written as int_floor^cap 1{x, y, ... < s} ds,
        the cube integral at fixed s factors over the levels into box
        moments, and an integral over the one or two s is left.
        """
        s_facs, scale_val, lims, weights = _box_plan(term, i, self.r, self.big_t)
        if scale_val == 0.0:  # exactly 0: no gap
            return make_product(s_facs), self._checked((0.0, 0.0), 0.0, "", rel_tol)
        breaks = _balanced({0.0, self.r, self.big_t}.union(
            *[f.times() for f in product_factors(term) if free_vars(f)]))

        def g(s):
            return scale_val * math.prod(
                _box_moment(wu, None if cu is None else s[cu],
                            wv, None if cv is None else s[cv], self.r, self.big_t, self.hh)
                for (wu, cu), (wv, cv) in zip(weights[::2], weights[1::2]))

        vals, sizes = zip(*[_s_integral(g, lims, breaks, refine)
                            for refine in (False, True)])
        val = self._checked(vals, sizes[1], "symmetrized box-moment integral", rel_tol)
        return make_product(s_facs), float(val) / math.factorial(i)


def _term_value(term, i, r, big_t, hh, path, rel_tol, level):
    """(value, route) for one frozen product term at level i >= 1."""
    split = _separable(term, i)
    if split is None:
        if r == big_t:  # the v-range [r, T] is empty: exactly 0, no gap
            s_expr = make_product([f for f in product_factors(term) if not free_vars(f)])
            val = level._checked((0.0, 0.0), 0.0, "", rel_tol)
            return _attach(s_expr, val, path, hh), "quadrature" if i == 1 else "symmetrized"
        if i == 1:
            return _quadrature_value(term, r, big_t, hh, path, rel_tol, level)
        return _attach(*level.symmetrized(term, i, rel_tol), path, hh), "symmetrized"
    s_facs, per_level = split
    keys = [_canonical_cluster(u, v, k + 1) for k, (u, v) in enumerate(per_level)]
    s_expr = make_product(s_facs)
    if len(set(keys)) == 1:
        u, v = per_level[0]
        cluster = _cluster_value(_cluster_polys(u, v, 1, r, big_t), r, hh)
        if i == 1:
            return _attach(s_expr, cluster, path, hh), "exact"
        val = cluster ** i / math.factorial(i)
        return _attach(s_expr, val, path, hh), "factorized"
    clusters = [_cluster_polys(u, v, k + 1, r, big_t)
                for k, (u, v) in enumerate(per_level)]
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
    error the level's grid reached there (separable and symmetrized terms,
    and quadrature terms at level 1), if any term used it.  A level with a
    term outside every route raises EngineError before any level is
    integrated.  At r = T the v-range [r, T] is empty, so every level >= 1
    is exactly 0.
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

    levels, x = [], f
    for i in range(order + 1):
        if i:
            x = second_derivative(x, i)
        frozen = collect_terms(make_sum(expand(freeze(x, r))))
        levels.append([t for t in sum_terms(frozen) if t != ZERO])
        _check_level(levels[-1], i, r, big_t)
    terms, sums, diags = [], [], []
    running = None
    for i, prods in enumerate(levels):
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
    # u = v1 - x^kappa with x = v1^p y, so x^kappa = v1 rest with
    # rest = 1 - y^kappa, and the innermost du phi_H(u, v1) becomes hh v1^p dy;
    # then v2 - u = v2 (1 - s rest) and v1 - u = v1 (1 - rest), so the
    # y-integrals are functions of s alone, taken once on the (s, y) grid
    rest = 1.0 - gy.nodes ** kappa
    s_rest = gs.nodes[..., None, None] * rest
    lead = -np.expm1(p * np.log1p(-s_rest))  # 1 - (1 - s rest)^p
    tail = (1.0 - rest) * (1.0 - s_rest) ** (2.0 * hh - 2.0)
    # A(s), B(s), C(s), D(s): the y-integrals of lead, rest lead, tail, rest tail
    a, b, c, d = gy.integral(np.stack([lead, rest * lead, tail, rest * tail]))
    # v1 = s v2 maps the triangle v1 <= v2 to the unit square, jacobian v2
    v2 = g2.nodes[..., None, None]
    v1 = v2 * gs.nodes

    def m0(lo, hi):
        # int_lo^hi phi_H(u, v2) du for 0 <= lo <= hi <= v2
        return hh * ((v2 - lo) ** p - (v2 - hi) ** p)

    def m1(lo, hi):
        # int_lo^hi u phi_H(u, v2) du via the elementary antiderivative
        def anti(u):
            return k2 * ((v2 - u) ** (2.0 * hh) / (2.0 * hh)
                         - v2 * (v2 - u) ** p / p)

        return anti(hi) - anti(lo)

    # innermost u2-integral exact, u1 substituted
    inner1 = hh * hh * v1 ** p * (big_t - v2) * v2 ** p \
        * ((3.0 * big_t - 2.0 * v1) * a - v1 * b)
    c0 = big_t * (big_t - v2) + 2.0 * (big_t - v1) * (big_t - v2)
    c1 = -(big_t - v2)
    # the piece carrying (v1 - u2)^(2H-1) has no closed form; substituted
    inner2 = hh * v1 ** p * (c0 * m0(0.0, v1) + c1 * m1(0.0, v1)) \
        - hh * k2 * kappa * v1 ** (p + 1.0) * v2 ** (2.0 * hh - 2.0) * (c0 * c + c1 * v1 * d)
    c0 = 2.0 * big_t * (big_t - v2) + (big_t - v1) * (big_t - v2)
    c1 = -2.0 * (big_t - v2)
    inner3 = hh * v1 ** p * (c0 * m0(v1, v2) + c1 * m1(v1, v2))
    return np.array([4.0 * g2.integral(g2.nodes * gs.integral(inner))
                     for inner in (inner1, inner2, inner3)])


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
    (v2 graded toward 0, s and y toward both ends).  Every y-dependent
    factor is a power of v1 or v2 times a function of (s, y), so the
    y-sums are taken first, once per s node, and the rest is a sum on the
    (v2, s) grid.  The same sums on the grid with every panel bisected on
    all three axes are returned; their gap to the first, relative to
    sum |I_k|, is the error estimate, and a gap above rel_tol raises
    QuadratureError carrying it in .achieved.
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
