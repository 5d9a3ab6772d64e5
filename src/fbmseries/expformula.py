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
  * quadrature  - the rest at level 1: the u_1 factors' kernel moment
                  against phi_H(u_1, v_1) is taken in closed form for a
                  whole array of v at once (functional.phi_moment; the u
                  factors are piecewise polynomial, or a time integral from
                  u_1, which on one path is piecewise polynomial in u_1),
                  and the v factors take one evaluate, with v bound to the
                  array of the nodes of the level's two grids;
  * symmetrized - the rest at levels i >= 2, when every factor holding
                  level variables is a ramp or a piecewise polynomial in
                  one variable (the prefactor may read the path).  D^{2i} F
                  is symmetric in its pairs of arguments, so the simplex
                  integral of the level's term set is 1/i! times its
                  integral over the cube [r, T]^i.  A ramp
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

Before any level is integrated, exp_series sorts each term's factors once
by the level variables they hold, which picks the term's route, and builds
each quadrature and symmetrized term's plan once; a term outside all five
routes raises EngineError there.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

import numpy as np

from .functional import (
    Expr,
    GridPath,
    ZERO,
    _combine_pwpoly,
    _moment_refusal,
    collect_terms,
    directional,
    evaluate,
    expand,
    free_vars,
    freeze,
    gc_paused,
    is_deterministic,
    make_product,
    make_sum,
    phi_moment,
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


def _sort_factors(term: Expr, i: int):
    """Sort a level-i product term's factors by the level variables they hold.

    Returns (s_facs, held, per_level): the factors free of every level
    variable; the others, in the term's order, each with the set of its
    level variables; and per level k the pair (u_k only, v_k only) of
    piecewise-polynomial factors, or None when a factor ties variables
    together or is not piecewise polynomial, so that the term has no
    separable route.
    """
    named = [(fac, free_vars(fac)) for fac in product_factors(term)]
    s_facs = [fac for fac, names in named if not names]
    held = [(fac, names) for fac, names in named if names]
    per_level = [([], []) for _ in range(i)]
    for fac, names in held:
        if len(names) > 1 or not fac.pw:
            return s_facs, held, None
        name, = names
        per_level[int(name[2:]) - 1][name[1] == "v"].append(fac)
    return s_facs, held, per_level


def _cluster_polys(u_facs, v_facs, k, r, big_t):
    """(constant, u-polynomial on [0, T], v-polynomial on [r, T]) of a
    separable cluster of piecewise-polynomial factors; None if it vanishes."""
    su, wu = _combine_pwpoly(u_facs, _uname(k), 0.0, big_t, None)
    sv, wv = _combine_pwpoly(v_facs, _vname(k), r, big_t, None)
    return None if wu is None or wv is None else (su * sv, wu, wv)


def _cluster_value(polys, r, big_t, hh, v_hi=None):
    """Exact 1/2 (int_0^T + int_0^r) du int_r^T dv of a cluster; with v_hi
    the v-range ends at v_hi instead (an array of ends gives the integral
    up to each)."""
    if polys is None:
        return 0.0
    c, wu, wv = polys
    return c * _box_moment(wu, None, wv, v_hi, r, big_t, hh)


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


def _quadrature_plan(held):
    """A level-1 term of the quadrature route, split for its integral: the
    pair (vf, uf) of its factors held (see _sort_factors) free of u_1 and
    holding it.  Raises EngineError for a term outside the route."""
    uf = [f for f, names in held if _uname(1) in names]
    if why := _moment_refusal(uf, _uname(1)):
        raise EngineError(f"no level-1 route integrates the term: {why}")
    return [f for f, names in held if _uname(1) not in names], uf


def _quadrature_value(plan, path, rel_tol, level):
    """int_r^T dv_1 of a level-1 term with the plan (vf, uf) of
    _quadrature_plan on the level's grid, u_1 paired with phi_H(u_1, v_1)."""
    vf, uf = plan
    if not all(is_deterministic(f) for f in vf + uf):
        if path is None:
            raise EngineError(
                "stochastic simplex integrand has no symbolic route; supply a path")
        if np.ndim(path.values) > 1:
            raise EngineError(
                "stochastic simplex integrand supports single paths only")
    return level.integral(vf, uf, path, rel_tol)


def _box_plan(held, i, r, big_t):
    """A level-i term of the symmetrized route, cut up for its integral.

    held is the term's factors that hold level variables (see
    _sort_factors).  Returns (scale, lims, weights, breaks): the constant of
    the single-variable factors (0 when one vanishes); the s-range
    (floor, cap) of each ramp holding several level variables; per
    variable u_1, v_1, u_2, ... the pair (piecewise polynomial on its
    range, index of its ramp or None); and the breaks of the s-grid.
    Raises EngineError for a term outside the route.
    """
    single, ramps = {}, []
    for f, names in held:
        if not f.pw:
            raise EngineError(
                f"no level-{i} route integrates the factor {to_sexpr(f)}: it reads "
                f"the path or is not piecewise polynomial in its level variables")
        if len(names) == 1:
            single.setdefault(next(iter(names)), []).append(f)
        else:  # a ramp cap - max(floor, x, y, ...) = int_floor^cap 1{x, y, ... < s} ds
            ramps.append((f, names))
    slot = {n: j for j, (_, names) in enumerate(ramps) for n in names}
    if len(ramps) > 2 or len(slot.keys() | single.keys()) < sum(
            len(names) for _, names in held):
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
            for f, _ in ramps]
    breaks = _balanced({0.0, r, big_t}.union(*[f.times() for f, _ in held]))
    return scale_val, lims, weights, breaks


def _check_level(prods, i, r, big_t):
    """The split (s_facs, held, per_level, plan) of each level-i term: its
    factors as _sort_factors sorts them, and its plan: the (vf, uf) pair of
    a level-1 quadrature term (_quadrature_plan), the box plan of a
    symmetrized one (_box_plan), or None when it takes another route.
    Level 0, evaluated whole, has none.

    Raises EngineError, before any integral runs, unless each level-i term
    outside the exact, factorized and separable routes fits the quadrature
    route (i = 1) or the symmetrized one (i >= 2), and, for i >= 2,
    relabeling the levels maps the set of those terms onto itself (the
    simplex-to-cube identity needs it).  Swaps of neighbouring levels
    generate every relabeling, so they are the ones tried.  At r = T every
    level >= 1 is 0, and nothing is checked."""
    splits = [_sort_factors(t, i) for t in prods] if i else []
    plans = [None if r == big_t or per_level is not None
             else _quadrature_plan(held) if i == 1 else _box_plan(held, i, r, big_t)
             for _, held, per_level in splits]
    terms = [t for t, plan in zip(prods, plans) if plan is not None]

    def key(k):  # the term set with levels k and k + 1 swapped (k = 0: as it is)
        ren = {f"{c}{a}": f"{c}{b}" for a, b in ((k, k + 1), (k + 1, k))
               for c in ("_u", "_v")} if k else None
        return sorted(tuple(sorted(to_sexpr(f, ren) for f in product_factors(t)))
                      for t in terms)

    if any(key(k) != key(0) for k in range(1, i)):
        raise EngineError(f"the level-{i} terms are not symmetric in the levels")
    return [(*split, plan) for split, plan in zip(splits, plans)]


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
    needs them, and each integrand is evaluated once on the nodes of both.
    Each distinct separable cluster is evaluated once per exp_series call
    and grid, in the call's memo: in v_1 as its exact running integral, in
    the other variables as its density; a level-1 quadrature integrand
    takes one array evaluate.  error is the largest gap between the two
    grids' values, relative to the integral of the absolute integrand, over
    the terms so far, and None while no term has used the grid; hits counts
    the terms whose every moment came from the memo.
    """

    def __init__(self, prods, r, big_t, hh, memo):
        self.prods, self.r, self.big_t, self.hh, self.memo = prods, r, big_t, hh, memo
        self.error = None
        self.hits = 0

    @functools.cached_property
    def breaks(self):
        return tuple(sorted({c for t in self.prods for c in times(t)
                             if self.r < c < self.big_t}))

    @functools.cached_property
    def grids(self):
        cuts = graded_cuts([self.r, *self.breaks, self.big_t], _GRADED, _RATIO)
        return PanelGrid(cuts, _NODES), PanelGrid(bisected(cuts), _NODES)

    def _on_both(self, fn):
        """fn at the nodes of each grid, from one call on both sets of nodes:
        every step is elementwise, so each value has the bits of a call on
        its own grid."""
        coarse, fine = self.grids
        vals = fn(np.concatenate([coarse.nodes, fine.nodes]))
        return vals[:len(coarse.nodes)], vals[len(coarse.nodes):]

    def _checked(self, vals, size, what, rel_tol):
        """The refined value, once its gap to the coarse one is within rel_tol."""
        err = float(abs(vals[1] - vals[0]) / size) if size > 0.0 else 0.0
        self.error = max(self.error or 0.0, err)
        if err > rel_tol:
            raise EngineError(f"{what} reached relative error {err:.3e}, "
                              f"above the tolerance {rel_tol:.3e}")
        return vals[1]

    def integral(self, vf, uf, path, rel_tol):
        """int_r^T g(v_1) dv_1 of a level-1 integrand: the product of the
        factors vf times 1/2 (int_0^T + int_0^r) du_1 of the product of the
        factors uf against phi_H(u_1, v_1)."""
        u1, v1 = _uname(1), _vname(1)

        def integrand(vs):
            # these float operations, in this order, are the ones the golden
            # files were written with; another order moves their last bits
            bound = {v1: vs}
            out = np.full_like(vs, 1.0 if self.r > 0.0 else 0.5)
            for val in evaluate(vf, path=path, bindings=bound):
                out *= val
            mom = phi_moment(uf, u1, 0.0, self.big_t, vs, self.hh, path, bound)
            if self.r > 0.0:
                mom = 0.0 + 0.5 * mom + 0.5 * phi_moment(uf, u1, 0.0, self.r, vs,
                                                         self.hh, path, bound)
            return out * mom

        gs = self._on_both(integrand)
        vals = [float(grid.integral(g)) for grid, g in zip(self.grids, gs)]
        return self._checked(vals, self.grids[1].integral(np.abs(gs[1])),
                             "level-1 quadrature", rel_tol)

    def _on(self, key, polys, first):
        """(values on both grids, memo hit) of a cluster."""
        memo_key = (self.breaks, key, first)
        hit = memo_key in self.memo
        if not hit:
            self.memo[memo_key] = self._on_both(
                lambda vs: _cluster_value(polys, self.r, self.big_t, self.hh, vs) if first
                else _cluster_density(polys, self.r, self.big_t, self.hh, vs))
        return self.memo[memo_key], hit

    def separable(self, clusters, keys, rel_tol):
        """Integral of the product of the clusters over the ordered simplex."""
        if any(polys is None for polys in clusters):  # exactly 0: no gap
            return self._checked((0.0, 0.0), 0.0, "", rel_tol)
        ons, hits = zip(*[self._on(key, polys, k == 0)
                          for k, (key, polys) in enumerate(zip(keys, clusters))])
        self.hits += all(hits)
        vals = [simplex_product(gs[0], gs[1:], grid)
                for grid, gs in zip(self.grids, zip(*ons))]
        gs = [fine for _, fine in ons]
        size = simplex_product(np.abs(gs[0]), [np.abs(g) for g in gs[1:]], self.grids[1])
        return self._checked(vals, size, "separable simplex integral", rel_tol)

    def symmetrized(self, plan, i, rel_tol):
        """The value of a level-i term of the symmetrized route, given its
        box plan (_box_plan).

        The level's term set is symmetric in the levels (_check_level), so
        its simplex integral is 1/i! times its integral over the cube
        [r, T]^i.  With each ramp written as int_floor^cap 1{x, y, ... < s} ds,
        the cube integral at fixed s factors over the levels into box
        moments, and an integral over the one or two s is left.
        """
        scale_val, lims, weights, breaks = plan
        if scale_val == 0.0:  # exactly 0: no gap
            return self._checked((0.0, 0.0), 0.0, "", rel_tol)

        def g(s):
            return scale_val * math.prod(
                _box_moment(wu, None if cu is None else s[cu],
                            wv, None if cv is None else s[cv], self.r, self.big_t, self.hh)
                for (wu, cu), (wv, cv) in zip(weights[::2], weights[1::2]))

        vals, sizes = zip(*[_s_integral(g, lims, breaks, refine)
                            for refine in (False, True)])
        val = self._checked(vals, sizes[1], "symmetrized box-moment integral", rel_tol)
        return float(val) / math.factorial(i)


def _term_value(split, i, r, big_t, hh, path, rel_tol, level):
    """(prefactor, integral, route) of one frozen product term at level
    i >= 1, given its split of _check_level: the prefactor is the product
    of its factors free of the level variables, and the term's value is the
    integral times the prefactor's.  A cluster's exact moment is computed
    once per exp_series call, in level.memo under its fingerprint."""
    s_facs, _, per_level, plan = split
    s_expr = make_product(s_facs)
    if per_level is None:
        if r == big_t:  # the v-range [r, T] is empty: exactly 0, no gap
            val = level._checked((0.0, 0.0), 0.0, "", rel_tol)
            return s_expr, val, "quadrature" if i == 1 else "symmetrized"
        if i == 1:
            return s_expr, _quadrature_value(plan, path, rel_tol, level), "quadrature"
        return s_expr, level.symmetrized(plan, i, rel_tol), "symmetrized"
    keys = [_canonical_cluster(u, v, k + 1) for k, (u, v) in enumerate(per_level)]
    if len(set(keys)) == 1:
        if keys[0] in level.memo:
            level.hits += 1
        else:
            u, v = per_level[0]
            level.memo[keys[0]] = _cluster_value(_cluster_polys(u, v, 1, r, big_t),
                                                 r, big_t, hh)
        cluster = level.memo[keys[0]]
        if i == 1:
            return s_expr, cluster, "exact"
        return s_expr, cluster ** i / math.factorial(i), "factorized"
    clusters = [_cluster_polys(u, v, k + 1, r, big_t)
                for k, (u, v) in enumerate(per_level)]
    return s_expr, level.separable(clusters, keys, rel_tol), "separable"


def _level_value(prods, splits, i, r, big_t, hh, path, rel_tol, memo, out):
    """(out, routes, error, hits) of level i, whose terms prods have the
    splits of _check_level.  out receives each term's (prefactor, integral)
    pair as soon as it is computed; level 0 gives one pair, the collected
    frozen functional and None.  error is the estimate of the level's grid,
    None when no term used it, and hits the number of terms whose moments
    came from memo, the exp_series call's memo."""
    if i == 0:
        out.append((make_sum(prods), None))
        return out, "evaluate", None, 0
    if not prods:
        return out, "vanishes", None, 0
    routes = set()
    level = _LevelGrid(prods, r, big_t, hh, memo)
    for split in splits:
        s_expr, val, route = _term_value(split, i, r, big_t, hh, path, rel_tol, level)
        out.append((s_expr, val))
        routes.add(route)
    return out, "+".join(sorted(routes)), level.error, level.hits


@gc_paused()
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
    of product terms at level i, under "memo_hits" the number of those
    whose cluster moments an earlier term of the call had computed, and
    under "error" the largest relative error the level's grid reached there
    (separable and symmetrized terms, and quadrature terms at level 1), if
    any term used it.  A level with a term outside every route raises
    EngineError before any level is integrated.  At r = T the v-range
    [r, T] is empty, so every level >= 1 is exactly 0.

    With a path, the frozen functional and the prefactor of every term of
    every level are evaluated on one joint schedule, after the last level
    is integrated, so a node they share is computed once; when an integral
    raises, the prefactors before it are evaluated first, so that an error
    of theirs surfaces as it would have in term order.

    The call runs with the cyclic garbage collector paused (gc_paused): the
    DAG it builds and its memos hold no reference cycle, so an automatic
    collection would scan them and free nothing.  The pause is
    process-wide; cyclic garbage that another thread makes meanwhile waits
    until the call returns.
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
        prods = [t for t in sum_terms(frozen) if t != ZERO]
        levels.append((prods, _check_level(prods, i, r, big_t)))
    memo, pairs, diags, failure = {}, [], [], None
    try:
        for i, (prods, splits) in enumerate(levels):
            pairs.append([])
            _, route, error, hits = _level_value(prods, splits, i, r, big_t, hh, path,
                                                 rel_tol, memo, pairs[-1])
            diags.append({"order": i, "route": route, "n_terms": len(prods),
                          "memo_hits": hits})
            if error is not None:
                diags[-1]["error"] = error
    except Exception as err:  # raised after the prefactors before it are evaluated
        failure = err
    if path is not None:
        values = iter(evaluate([s for level in pairs for s, _ in level], path=path))
    if failure is not None:
        raise failure
    if path is None:
        terms = [pairs[0][0][0]] + [
            collect_terms(make_sum([scale(s, v) for s, v in level])) if level else ZERO
            for level in pairs[1:]]
    else:
        vals = [[next(values) if v is None else v * next(values) for _, v in level]
                for level in pairs]
        terms = [functools.reduce(operator.add, vs) if vs else 0.0 for vs in vals]
    add = operator.add if path is not None else (
        lambda a, b: collect_terms(make_sum([a, b])))
    return SeriesResult(order=order, terms=terms,
                        partial_sums=list(itertools.accumulate(terms, add)),
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
