"""Gauss-Legendre panel quadrature with breakpoint splits and refinement checks.

Integrands are vectorized over the node axis: f(nodes) must return an array
whose last axis matches nodes (leading axes, e.g. one per Monte-Carlo path,
are carried through).  Singular or kinked locations are handled by listing
them as breakpoints and, where useful, by geometric panel grading toward an
endpoint; the kernel singularities in this package are integrable, so split
panels converge quickly.

The engines use the fixed Gauss panel grids (PanelGrid, graded cuts,
bisection, running and simplex integrals).  No package code calls the
adaptive rules (fixed_panel, adaptive_panels, phi_weighted_integral): every
kernel integral is a closed form, and they stay as the tests' independent
reference for those closed forms.  perfbench/tracer.py binds
phi_weighted_integral by name.
"""

from __future__ import annotations

import functools

import numpy as np


class QuadratureError(RuntimeError):
    """Adaptive refinement failed to reach the requested tolerance."""

    def __init__(self, message: str, achieved: float):
        super().__init__(f"{message} (achieved tolerance {achieved:.3e})")
        self.achieved = achieved


@functools.lru_cache(maxsize=None)
def gauss_nodes(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def fixed_panel(f, a: float, b: float, n: int = 24):
    """n-point Gauss-Legendre approximation on [a, b]."""
    if b <= a:
        return 0.0
    x, w = gauss_nodes(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    vals = np.asarray(f(mid + half * x), dtype=float)
    return half * np.sum(vals * w, axis=-1)


def _split_points(a: float, b: float, breaks) -> list:
    cuts = sorted({float(c) for c in breaks if a < float(c) < b})
    return [a] + cuts + [b]


def adaptive_panels(f, a: float, b: float, breaks=(), rel_tol: float = 1e-10,
                    n: int = 24, max_depth: int = 14):
    """Adaptive bisection with a Gauss rule per panel, split at breakpoints.

    The per-panel error estimate is |whole - split halves|; panels recurse
    until the estimate falls under the tolerance budget.  A panel still
    above it at max_depth raises QuadratureError: no result is best effort.
    """
    if b <= a:
        return 0.0
    pts = _split_points(a, b, breaks)
    total = None
    first = fixed_panel(f, a, b, n)
    scale = max(float(np.max(np.abs(first))), 1e-300)
    worst = 0.0

    def recurse(lo, hi, whole, depth):
        nonlocal worst
        m = 0.5 * (lo + hi)
        left = fixed_panel(f, lo, m, n)
        right = fixed_panel(f, m, hi, n)
        err = np.max(np.abs(whole - (left + right)))
        if err <= rel_tol * scale or depth >= max_depth:
            if depth >= max_depth:
                worst = max(worst, err / scale)
            return left + right
        return recurse(lo, m, left, depth + 1) + recurse(m, hi, right, depth + 1)

    for lo, hi in zip(pts, pts[1:]):
        # with no breakpoint inside, the first panel is the whole interval
        part = recurse(lo, hi, first if len(pts) == 2 else fixed_panel(f, lo, hi, n), 0)
        total = part if total is None else total + part
    if worst > rel_tol:
        raise QuadratureError("adaptive quadrature did not converge", worst)
    return total


def phi_weighted_integral(f, lo: float, hi: float, v: float, h: float,
                          breaks=(), rel_tol: float = 1e-10, n: int = 24):
    """int_lo^hi f(u) H(2H-1)|u - v|^(2H-2) du with the singularity absorbed.

    On each side of v substitute x = |u - v|^(2H-1), which turns the singular
    weight into Lebesgue measure: the transformed integrand H * f(v +/- x^kappa)
    with kappa = 1/(2H-1) > 1 is continuous, so plain adaptive panels converge.
    Plain bisection on the original variable would need depth ~ tol^(1/(2H-1))
    and is hopeless for tight tolerances.
    """
    p = 2.0 * h - 1.0
    kappa = 1.0 / p
    total = 0.0
    if hi > v:
        a = max(lo, v)
        x_lo, x_hi = (a - v) ** p, (hi - v) ** p

        def right(xs):
            return f(v + np.asarray(xs) ** kappa)

        tb = [(c - v) ** p for c in breaks if a < c < hi]
        total = total + h * adaptive_panels(right, x_lo, x_hi, breaks=tb,
                                            rel_tol=rel_tol, n=n)
    if lo < v:
        b = min(hi, v)
        x_lo, x_hi = (v - b) ** p, (v - lo) ** p

        def left(xs):
            return f(v - np.asarray(xs) ** kappa)

        tb = [(v - c) ** p for c in breaks if lo < c < b]
        total = total + h * adaptive_panels(left, x_lo, x_hi, breaks=tb,
                                            rel_tol=rel_tol, n=n)
    return total


def graded_points(a: float, b: float, n_panels: int, ratio: float = 0.25,
                  toward_start: bool = True) -> list:
    """Panel cut points geometrically graded toward one endpoint."""
    if n_panels < 1 or not 0.0 < ratio < 1.0:
        raise ValueError(f"need at least one panel and a grading ratio in (0, 1), "
                         f"got {n_panels} panels and ratio {ratio}")
    offs = [(b - a) * ratio ** k for k in range(1, n_panels)]
    if toward_start:
        return sorted(set([a] + [a + o for o in offs] + [b]))
    return sorted(set([a] + [b - o for o in offs] + [b]))


def graded_cuts(points, n_graded: int, ratio: float) -> list:
    """Panel cuts between consecutive points, each interval graded toward both ends."""
    cuts = []
    for a, b in zip(points, points[1:]):
        mid = 0.5 * (a + b)
        cuts += graded_points(a, mid, n_graded, ratio)[:-1]
        cuts += graded_points(mid, b, n_graded, ratio, toward_start=False)[:-1]
    return cuts + [points[-1]]


def bisected(cuts) -> list:
    """The cuts with every panel between them split at its midpoint."""
    return sorted(set(cuts) | {0.5 * (a + b) for a, b in zip(cuts, cuts[1:])})


@functools.lru_cache(maxsize=None)
def _running_matrix(n: int):
    """S with (S @ f)_j = int_{-1}^{x_j} p for p the interpolant of f at the
    n Gauss nodes x (exact for polynomials of degree < n)."""
    x, w = gauss_nodes(n)
    leg = np.polynomial.legendre
    to_coeffs = (np.arange(n)[:, None] + 0.5) * leg.legvander(x, n - 1).T * w
    return leg.legvander(x, n) @ leg.legint(np.eye(n), lbnd=-1) @ to_coeffs


class PanelGrid:
    """n Gauss nodes on each panel between consecutive cuts; functions are
    given by their values at nodes, one row per panel."""

    def __init__(self, cuts, n: int):
        x, self._w = gauss_nodes(n)
        lo, hi = np.asarray(cuts[:-1], dtype=float), np.asarray(cuts[1:], dtype=float)
        self._half = 0.5 * (hi - lo)
        self.nodes = 0.5 * (lo + hi)[:, None] + self._half[:, None] * x
        self._running = _running_matrix(n)

    def integral(self, f):
        """The integral of f over the grid, one per leading index of f."""
        return (f @ self._w) @ self._half

    def running(self, f):
        """The integral of f from the first cut to each node."""
        before = np.concatenate(([0.0], np.cumsum(self._half * (f @ self._w))[:-1]))
        return before[:, None] + self._half[:, None] * (f @ self._running.T)


def simplex_product(first, gs, grid: PanelGrid) -> float:
    """Integral of g_1(v_1) ... g_i(v_i) over the ordered simplex
    v_1 <= ... <= v_i between the grid's ends, as an iterated running
    integral: first is the running integral of g_1 at the grid's nodes and
    gs the values of g_2, ..., g_i there (i >= 2)."""
    acc = first
    for g in gs[:-1]:
        acc = grid.running(g * acc)
    return float(grid.integral(gs[-1] * acc))
