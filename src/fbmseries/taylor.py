"""Backward Taylor expansion of conditional expectations on a time grid.

For a discrete functional F of the path at grid times t_1 < ... < t_J, the
conditional expectation given the history up to r admits a convergent
alternating series over segment multi-indices.  Write I_r for the index of
the grid cell whose right-closed interval contains r and set

    (s_0, s_1, ..., s_K) = (r, t_{I_r}, ..., t_J)

(the leading segment is dropped when r coincides with t_{I_r}).  The order-l
contribution is

    (-1)^l sum_{|q| = l} sum_{i_k <= q_k} prod_k (-1)^{i_k}
           (s_k - s_{k-1})^{(q_k - i_k) H} / (q_k - i_k)!
        x  [ composition, innermost segment K first:
             X <- h_{q_k - i_k}( (B_{s_k} - B_{s_{k-1}}) / (s_k - s_{k-1})^H )
                  * psi_{i_k}^{(s_{k-1}, s_k)}(X) ,  starting from X = D^q F ]

where D^q applies q_k grid-time derivatives at each segment's right endpoint
and psi_k^{(a,b)} is the iterated kernel-integral operator

    psi_k^{(a,b)}(X) = sum_{|q| = k} prod_i ( R_i^{q_i} / q_i! ) D^q X,
    R_i = iint_{cell_i x [a,b]} phi_H,

with cells taken from the partition of [0, horizon] induced by X's own
sample times (rectangle additivity makes the value independent of how far
that partition is refined).  Hermite factors stay unexpanded and are
evaluated by recurrence, which keeps high orders numerically stable.
"""

from __future__ import annotations

import math

from .functional import (
    Expr,
    GridPath,
    TimeGrid,
    ZERO,
    collect_terms,
    directional,
    evaluate,
    fbm_sample,
    fbm_times,
    hermite_factor,
    is_discrete,
    make_product,
    make_sum,
    scale,
    sum_terms,
)
from .kernel import Interval, _hval, rect_integral
from .results import SeriesResult


class DerivativeMemo:
    """collect_terms(directional(expr, at)) memoized for one engine call.

    The derivatives taken at one grid time share one directional memo, so a
    node that recurs across the expressions differentiated there is
    differentiated once, and a repeated (expr, at) request returns the
    collected result.  The memo is keyed by node identity, so it keeps
    every expression it differentiated alive; no node refers back to it,
    and dropping it frees everything it holds.
    """

    __slots__ = ("_done", "_collected")

    def __init__(self):
        self._done = {}        # at -> {id(node): D_at node}
        self._collected = {}   # (id(expr), at) -> (expr, collected D_at expr)

    def __call__(self, expr: Expr, at: float) -> Expr:
        hit = self._collected.get((id(expr), at))
        if hit is None:
            d = collect_terms(directional(expr, at, self._done.setdefault(at, {})))
            hit = self._collected[id(expr), at] = (expr, d)
        return hit[1]


def psi_orders(x: Expr, a: float, b: float, k_max: int, h,
               t_final: float, derive: "DerivativeMemo | None" = None) -> list:
    """[psi_0(x), .., psi_k_max(x)] over the partition from x's sample times.

    One depth-first walk over the cells shares every derivative chain
    across the multi-indices of all orders, instead of redoing the chains
    per order and per composition.  derive takes the derivatives; a caller
    passes its own memo to share them with its other calls.
    """
    hh = _hval(h)
    derive = derive or DerivativeMemo()
    if x == ZERO or k_max == 0:
        return [x] + [ZERO] * k_max
    cuts = sorted(t for t in fbm_times(x) | {t_final} if 0.0 < t <= t_final)
    cells = list(zip([0.0] + cuts[:-1], cuts))
    rng = Interval(a, b)
    rects = [rect_integral(Interval(lo, hi), rng, hh) for lo, hi in cells]
    acc = [[] for _ in range(k_max + 1)]
    # depth first over (cell, orders used, derivative, coefficient); the
    # children of a cell are pushed in reverse so they pop in order j = 0, 1, ..
    stack = [(0, 0, x, 1.0)]
    while stack:
        ci, used, d, coeff = stack.pop()
        if ci == len(cells):
            acc[used].append(scale(d, coeff))
            continue
        hi, ri = cells[ci][1], rects[ci]
        kids = [(ci + 1, used, d, coeff)]
        for j in range(1, k_max - used + 1):
            d = derive(d, hi)
            if d == ZERO:
                break
            kids.append((ci + 1, used + j, d, coeff * ri ** j / math.factorial(j)))
        stack.extend(reversed(kids))
    return [collect_terms(make_sum(p)) if p else ZERO for p in acc]


def _segments(grid: TimeGrid, r: float):
    """Segment endpoints (s_0..s_K) = (r, t_{I_r}, .., t_J), degenerate head dropped."""
    i_r = grid.locate(r)
    pts = [r] + list(grid.times[i_r:])
    if len(pts) >= 2 and pts[0] == pts[1]:
        pts = pts[1:]
    return pts


def _validate(f: Expr, order: int, grid: TimeGrid) -> None:
    if order < 0:
        raise ValueError("truncation order must be >= 0")
    if not is_discrete(f):
        raise ValueError("backward Taylor expansion requires a discrete functional")
    stray = fbm_times(f) - set(grid.times)
    if stray:
        raise ValueError(f"sample times {sorted(stray)} are not grid times")


def _setup(f: Expr, r: float, grid: TimeGrid, order: int, hh):
    _validate(f, order, grid)
    pts = _segments(grid, r)
    n_seg = len(pts) - 1
    deltas = [pts[k + 1] - pts[k] for k in range(n_seg)]
    args = [scale(make_sum([fbm_sample(pts[k + 1]),
                            scale(fbm_sample(pts[k]), -1.0)]),
                  deltas[k] ** (-hh)) for k in range(n_seg)]
    return pts, deltas, args


def _package(order, term_exprs, n_counts, hh, path) -> SeriesResult:
    """The series result; with a path, the terms are evaluated on one
    schedule, which computes a node shared across orders once."""
    terms = term_exprs if path is None else evaluate(term_exprs, h=hh, path=path)
    sums, diags = [], []
    running = None
    for l, term in enumerate(terms):
        if path is None:
            running = term if running is None else make_sum([running, term])
        else:
            running = term if running is None else running + term
        sums.append(running)
        diags.append({"order": l, "n_terms": n_counts[l]})
    return SeriesResult(order, terms, sums, diags)


def backward_taylor(f: Expr, r: float, grid: TimeGrid, order: int, h,
                    path: "GridPath | None" = None) -> SeriesResult:
    """Truncated backward Taylor series for E[f | path up to r].

    With a path (possibly vectorized across an ensemble) the terms are
    numeric; without one they stay symbolic.  f must be a discrete
    functional sampled at grid times.

    The segment sums are folded into one linear operator per segment,

        S_k^n(X) = (-1)^n sum_{i<=n} (-1)^i d_k^{(n-i)H} / (n-i)!
                   h_{n-i}(xi_k) psi_i^{(s_{k-1}, s_k)}( D_{s_k}^n X ),

    and terms of total order l accumulate by convolving the S_k layers from
    the last segment backwards; this shares all common subchains that the
    literal enumeration over per-segment multi-indices would recompute (the
    test suite keeps that enumeration as a cross-check).  Folding D^{q_k}
    into segment k is exact because an earlier-time grid derivative
    commutes with later-segment kernel integrals and passes through their
    Hermite increment factors.

    The chains D^n of the segments and those inside every psi_i overlap,
    so one DerivativeMemo serves all of them for the length of the call:
    each node is differentiated once per grid time, and a repeated
    (expression, time) pair is collected once.  With a path, the order + 1
    terms are evaluated on one schedule, so a node they share is computed
    once and dropped after its last use by any term.
    """
    hh = _hval(h)
    pts, deltas, args = _setup(f, r, grid, order, hh)
    n_seg = len(pts) - 1
    t_final = grid.final_time
    derive = DerivativeMemo()

    layer = {0: f}
    for k in range(n_seg - 1, -1, -1):
        nxt = {}
        for used, prev in layer.items():
            d = prev
            for n in range(order - used + 1):
                if n > 0:
                    d = derive(d, pts[k + 1])
                    if d == ZERO:
                        break
                psis = psi_orders(d, pts[k], pts[k + 1], n, hh, t_final, derive)
                pieces = []
                for i, y in enumerate(psis):
                    if y == ZERO:
                        continue
                    m = n - i
                    if m > 0:
                        y = make_product([hermite_factor(m, args[k]), y])
                    pieces.append(scale(y, (-1.0) ** n * (-1.0) ** i
                                        * deltas[k] ** (m * hh)
                                        / math.factorial(m)))
                if pieces:
                    tot = used + n
                    pieces.append(nxt.get(tot, ZERO))
                    nxt[tot] = collect_terms(make_sum(pieces))
        layer = nxt

    term_exprs = [layer.get(l, ZERO) for l in range(order + 1)]
    n_counts = [0 if t == ZERO else len(sum_terms(t)) for t in term_exprs]
    return _package(order, term_exprs, n_counts, hh, path)
