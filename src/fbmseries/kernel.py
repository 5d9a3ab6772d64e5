"""Closed-form integration against the singular fBm covariance kernel.

For Hurst index H in (1/2, 1) the fractional Brownian covariance structure
is generated by the kernel

    phi_H(u, v) = H (2H - 1) |u - v|^(2H - 2),

which is integrable but singular on the diagonal u = v.  Inner products
<f, g>_H = iint f(s) g(t) phi_H(s, t) ds dt of piecewise polynomials admit
exact elementary antiderivatives, so no quadrature is needed anywhere in
this module.  The key object is the antiderivative family

    Phi_1(x) = H sign(x) |x|^(2H-1),        Phi_1' = phi_H   (a.e.)
    Phi_2(x) = |x|^(2H) / 2,                Phi_2' = Phi_1
    Phi_m(x) = kappa_m sign(x)^m |x|^(2H-2+m),   Phi_m' = Phi_{m-1}

with kappa_m = H(2H-1) / prod_{j=1..m} (2H - 2 + j).  Every exponent
2H - 2 + m is positive for m >= 1, so each Phi_m is continuous through
x = 0 and moments of polynomials against phi_H follow by repeated
integration by parts:

    int y^n Phi_m(y) dy = sum_{s=0..n} (-1)^s n!/(n-s)! y^(n-s) Phi_{m+1+s}(y).

Fractional powers |x|^p are computed as exp(p log|x|) with 0 mapped to 0.

The moments evaluate Phi_m through an endpoint table (`_Endpoint`): for one
endpoint y, a float or an array, it takes sign(y) and log|y| once and each
Phi_m(y) and y**k the first time it is asked for, by the same float
operations as a lone evaluation.  Each moment call builds one table per
endpoint (a cut row or piece break minus the partner v, or e - c and e - d
for the ends e of a rectangle's u-piece; equal neighbouring cut rows share
one) and drops them on return.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np


class DiagonalSingularityError(ValueError):
    """Pointwise kernel evaluation requested exactly on the diagonal u = v."""


def _hval(h) -> float:
    """The Hurst index as a float, validated to the open interval (1/2, 1)."""
    v = float(h)
    if not (0.5 < v < 1.0):
        raise ValueError(f"Hurst index must lie in (1/2, 1), got {v}")
    return v


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi] with lo <= hi, both finite and >= 0."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("interval endpoints must be finite")
        if self.lo < 0.0 or self.hi < self.lo:
            raise ValueError(f"need 0 <= lo <= hi, got [{self.lo}, {self.hi}]")


def abs_pow(x, p: float):
    """|x|**p via exp(p log|x|), with the convention 0**p = 0 (p may be fractional)."""
    return _Endpoint(x).abs_pow(p)


class _Endpoint:
    """Phi_m(y), |y|**p and y**k at one endpoint y (float or array).

    sign(y) and log|y| are taken once, each Phi_m(y) and y**k the first
    time it is asked for; h is the Hurst index of Phi_m.
    """

    def __init__(self, y, h=None):
        self.y, self.h, self.phis, self.pows = y, h, {}, {}
        if isinstance(y, float) or np.ndim(y) == 0:
            # sign(y)**m for odd and even m, with sign(0) = 0
            self.sign = (math.copysign(1.0, y) if y != 0.0 else 0.0,
                         0.0 if y == 0.0 else 1.0)
            self.nz, self.log = None, (None if y == 0.0 else math.log(abs(float(y))))
        else:
            ay = np.asarray(y, dtype=float)
            s, ax = np.sign(ay), np.abs(ay)
            self.sign, self.nz = (s, np.abs(s)), ax > 0.0
            self.log = np.log(ax[self.nz])

    def abs_pow(self, p: float):
        if self.nz is None:
            return 0.0 if self.log is None else math.exp(p * self.log)
        out = np.zeros(self.nz.shape)
        out[self.nz] = np.exp(p * self.log)
        return out

    def phi(self, m: int):
        """Phi_m(y) = kappa_m sign(y)^m |y|^(2H-2+m)."""
        if m not in self.phis:
            hh = _hval(self.h)
            kappa = hh * (2.0 * hh - 1.0)
            for j in range(1, m + 1):
                kappa /= 2.0 * hh - 2.0 + j
            self.phis[m] = kappa * self.sign[1 - m % 2] * self.abs_pow(2.0 * hh - 2.0 + m)
        return self.phis[m]

    def pow(self, k: int):
        if k not in self.pows:
            self.pows[k] = self.y ** k
        return self.pows[k]


def phi(u, v, h) -> float:
    """Kernel phi_H(u, v) = H(2H-1)|u - v|^(2H-2); singular on the diagonal."""
    hh = _hval(h)
    d = np.asarray(u, dtype=float) - np.asarray(v, dtype=float)
    if np.any(d == 0.0):
        raise DiagonalSingularityError("phi_H evaluated at u == v")
    val = hh * (2.0 * hh - 1.0) * abs_pow(d, 2.0 * hh - 2.0)
    return float(val) if np.ndim(val) == 0 else val


def phi_family(m: int, x, h):
    """m-th iterated antiderivative Phi_m of the kernel (m >= 1), Phi_m' = Phi_{m-1}."""
    if m < 1:
        raise ValueError("phi_family is defined for m >= 1")
    return _Endpoint(x, h).phi(m)


def phi_antiderivative(a: float, b: float, v: float, h) -> float:
    """Exact int_a^b phi_H(u, v) du = Phi_1(b - v) - Phi_1(a - v)."""
    return float(phi_family(1, b - v, h) - phi_family(1, a - v, h))


def int_pow_phi(n: int, m: int, alpha, beta, h):
    """Exact int_alpha^beta y^n Phi_m(y) dy (with Phi_0 meaning the kernel itself).

    Repeated integration by parts; valid across y = 0 because every Phi_{m+1+s}
    with s >= 0 is continuous there.  Either limit may be an array, giving
    the integral for each element.
    """
    if n < 0 or m < 0:
        raise ValueError("need n >= 0 and m >= 0")
    return _int_pow_phi(n, m, _Endpoint(alpha, h), _Endpoint(beta, h))


def _int_pow_phi(n: int, m: int, ta: _Endpoint, tb: _Endpoint):
    """int_pow_phi between the endpoints of the tables ta and tb."""
    total = 0.0
    ff = 1.0
    for s in range(n + 1):
        g = tb.pow(n - s) * tb.phi(m + 1 + s) - ta.pow(n - s) * ta.phi(m + 1 + s)
        total += (-1.0) ** s * ff * g
        ff *= n - s
    return total


def rect_integral(u_iv: Interval, v_iv: Interval, h) -> float:
    """Exact iint over [a,b] x [c,d] of phi_H(u, v) du dv.

    Equals ( |b-c|^2H + |a-d|^2H - |a-c|^2H - |b-d|^2H ) / 2 and remains exact
    when the rectangle crosses the diagonal.
    """
    hh = _hval(h)
    a, b = u_iv.lo, u_iv.hi
    c, d = v_iv.lo, v_iv.hi
    p = 2.0 * hh
    return 0.5 * (abs_pow(b - c, p) + abs_pow(a - d, p)
                  - abs_pow(a - c, p) - abs_pow(b - d, p))


@dataclass(frozen=True)
class PiecewisePoly:
    """Compactly supported piecewise polynomial, zero outside its breakpoints.

    coeffs[i] holds ascending-power coefficients on [breaks[i], breaks[i+1]].
    """

    breaks: tuple
    coeffs: tuple

    def __post_init__(self):
        if len(self.breaks) != len(self.coeffs) + 1 or not self.coeffs:
            raise ValueError("need len(breaks) == len(coeffs) + 1 >= 2")
        for x, y in zip(self.breaks, self.breaks[1:]):
            if not (float(x) < float(y)):
                raise ValueError("breakpoints must be strictly increasing")

    @staticmethod
    def from_poly(coeffs: Sequence[float], lo: float, hi: float) -> "PiecewisePoly":
        return PiecewisePoly((float(lo), float(hi)), (tuple(float(c) for c in coeffs),))

    @staticmethod
    def indicator(lo: float, hi: float) -> "PiecewisePoly":
        return PiecewisePoly.from_poly((1.0,), lo, hi)

    def pieces(self) -> Iterable[tuple]:
        for i, c in enumerate(self.coeffs):
            yield self.breaks[i], self.breaks[i + 1], c

    def __call__(self, x):
        xs = np.asarray(x, dtype=float)
        out = np.zeros_like(xs, dtype=float)
        for a, b, c in self.pieces():
            mask = (xs >= a) & (xs <= b) if b == self.breaks[-1] else (xs >= a) & (xs < b)
            if np.any(mask):
                out[mask] = np.polynomial.polynomial.polyval(xs[mask], np.asarray(c))
        return float(out) if np.ndim(x) == 0 else out

    def restrict(self, lo: float, hi: float) -> "PiecewisePoly | None":
        """Clip support to [lo, hi]; None if the overlap has zero length."""
        pieces = []
        for a, b, c in self.pieces():
            aa, bb = max(a, lo), min(b, hi)
            if aa < bb:
                pieces.append((aa, bb, c))
        if not pieces:
            return None
        breaks = [pieces[0][0]]
        coeffs = []
        for aa, bb, c in pieces:
            if aa > breaks[-1]:
                coeffs.append((0.0,))
                breaks.append(aa)
            coeffs.append(c)
            breaks.append(bb)
        return PiecewisePoly(tuple(breaks), tuple(coeffs))

    def mul(self, other: "PiecewisePoly") -> "PiecewisePoly | None":
        """Pointwise product; None when the supports do not overlap."""
        lo = max(self.breaks[0], other.breaks[0])
        hi = min(self.breaks[-1], other.breaks[-1])
        if not (lo < hi):
            return None
        cuts = sorted({float(t) for t in self.breaks + other.breaks if lo <= t <= hi} | {lo, hi})
        coeffs = []
        for a, b in zip(cuts, cuts[1:]):
            mid = 0.5 * (a + b)
            ca = _piece_at(self, mid)
            cb = _piece_at(other, mid)
            if ca is None or cb is None:
                coeffs.append((0.0,))
            else:
                coeffs.append(tuple(np.polynomial.polynomial.polymul(ca, cb)))
        return PiecewisePoly(tuple(cuts), tuple(coeffs))


def _piece_at(w: PiecewisePoly, x: float):
    for a, b, c in w.pieces():
        if a <= x <= b:
            return np.asarray(c, dtype=float)
    return None


def _mono_phi_moment(i: int, ints: list, vps: list):
    """Exact int_a^b u^i phi_H(u, v) du via the shift u = v + y, from
    ints[j] = int_{a-v}^{b-v} y^j phi_H(y) dy and vps[k] = v**k."""
    total = 0.0
    for j in range(i + 1):
        total += math.comb(i, j) * vps[i - j] * ints[j]
    return total


def phi_poly_moment(w: PiecewisePoly, iv: Interval, v, h):
    """Exact int w(u) phi_H(u, v) du over supp(w) intersected with iv.

    v may sit inside the integration range; the closed form handles the
    diagonal crossing exactly.  An array of partners v gives the moment at
    each of them.
    """
    if np.ndim(v) == 0:
        v, total = float(v), 0.0
    else:
        v = np.asarray(v, dtype=float)
        total = np.zeros_like(v)
    clipped = w.restrict(iv.lo, iv.hi)
    if clipped is None:
        return total
    ends = [_Endpoint(x - v, h) for x in clipped.breaks]
    vps = [v ** k for k in range(max(len(c) for c in clipped.coeffs))]
    for c, ta, tb in zip(clipped.coeffs, ends, ends[1:]):
        top = max((i for i, ci in enumerate(c) if ci != 0.0), default=-1)
        ints = [_int_pow_phi(j, 0, ta, tb) for j in range(top + 1)]
        for i, ci in enumerate(c):
            if ci != 0.0:
                total += ci * _mono_phi_moment(i, ints, vps)
    return total


def pieces_phi_moment(ws, lo: float, hi: float, v, h):
    """Exact int_lo^hi prod_k w_k(u) phi_H(u, v) du over a batch.

    Each w_k is a list of pieces (a, b, ascending coefficients), zero off
    them; the pieces of one w_k do not overlap, and a piece may be empty or
    reversed.  Limits, coefficients and v may be arrays of one batch shape.
    [lo, hi] is cut at every limit, sorted per element, so each cell lies
    in one piece of each w_k or in none, and the cell's product polynomial
    takes the closed form.  A cell empty in every element, or outside every
    piece of some w_k, adds exactly 0 and is skipped.  A cell's polynomial
    reads only the pieces whose limits, over the batch, can hold one of its
    midpoints; a cut row equal to the one before it shares that row's
    endpoint table; and each v**k, and each cell's integral of y^j phi_H,
    is taken once.  So every value has the bits of a scan of every piece
    for every cell.
    """
    limits = [np.clip(x, lo, hi) for w in ws for a, b, _ in w for x in (a, b)]
    cuts = np.sort(np.broadcast_arrays(lo, hi, *limits, v)[:-1], axis=0)
    rows = cuts.reshape(len(cuts), -1)
    mids = 0.5 * (cuts[:-1] + cuts[1:])
    flat = mids.reshape(len(mids), -1)
    low, high = flat.min(axis=1), flat.max(axis=1)
    # holds[k][p, cell]: piece p of w_k can hold the cell's midpoint
    holds = [(np.array([np.min(a) for a, _, _ in w])[:, None] <= high)
             & (low < np.array([np.max(b) for _, b, _ in w])[:, None]) for w in ws]
    equal = rows[1:] == rows[:-1]
    keep = ~equal.all(axis=1) & np.all([hk.any(axis=0) for hk in holds], axis=0)
    same = (equal & (np.signbit(rows[1:]) == np.signbit(rows[:-1]))).all(axis=1)
    ends = [_Endpoint(cuts[0] - v, h)]
    for x, repeat in zip(cuts[1:], same):
        ends.append(ends[-1] if repeat else _Endpoint(x - v, h))
    vps = [v ** k for k in range(1 + sum(max(len(c) for _, _, c in w) - 1 for w in ws))]
    shapes = [np.shape(cj) for w in ws for _, _, c in w for cj in c]
    total = np.zeros(np.broadcast_shapes(np.shape(cuts[0]), *shapes))[()]
    for cell in np.flatnonzero(keep):
        mid, poly = mids[cell], [1.0]
        for w, hk in zip(ws, holds):
            held = [w[p] for p in np.flatnonzero(hk[:, cell])]
            coeffs = [0.0] * max(len(c) for _, _, c in held)
            for pa, pb, c in held:
                inside = (pa <= mid) & (mid < pb)
                for j, cj in enumerate(c):
                    coeffs[j] = coeffs[j] + np.where(inside, cj, 0.0)
            # times the cell's polynomial of w: a convolution of coefficients
            poly = [sum(poly[k] * coeffs[n - k] for k in range(len(poly))
                        if 0 <= n - k < len(coeffs))
                    for n in range(len(poly) + len(coeffs) - 1)]
        ints = [_int_pow_phi(j, 0, ends[cell], ends[cell + 1]) for j in range(len(poly))]
        for i, ci in enumerate(poly):
            total = total + ci * _mono_phi_moment(i, ints, vps)
    return total


def _mono_rect_terms(i: int, a: float, b: float):
    """int_a^b u^i phi_H(u, v) du as terms coef * v^vp * (e - v)^k * Phi_m(e - v)."""
    terms = []
    for j in range(i + 1):
        cij = math.comb(i, j)
        ff = 1.0
        for s in range(j + 1):
            coef = cij * (-1.0) ** s * ff
            terms.append((coef, i - j, b, j - s, 1 + s))
            terms.append((-coef, i - j, a, j - s, 1 + s))
            ff *= j - s
    return terms


def _int_v_poly_shifted(pw: int, e: float, k: int, m: int,
                        td: _Endpoint, tc: _Endpoint):
    """Exact int_c^d v^pw (e - v)^k Phi_m(e - v) dv (d float or array), from
    the tables of e - d and e - c."""
    total = 0.0
    for t in range(pw + 1):
        epow = e ** (pw - t) if pw - t > 0 else 1.0
        total += math.comb(pw, t) * epow * (-1.0) ** t \
            * _int_pow_phi(k + t, m, td, tc)
    return total


def poly_rect_integral(wu: PiecewisePoly, wv: PiecewisePoly, h, v_hi=None):
    """Exact iint wu(u) wv(v) phi_H(u, v) du dv over the product of supports.

    With v_hi the v-range is also capped at v_hi; an array of caps gives the
    integral up to each of them.
    """
    total = 0.0
    for a, b, cu in wu.pieces():
        for c, d, cv in wv.pieces():
            if v_hi is not None:
                d = np.clip(v_hi, c, d)
            ends = {e: (_Endpoint(e - d, h), _Endpoint(e - c, h)) for e in (a, b)}
            for i, cui in enumerate(cu):
                if cui == 0.0:
                    continue
                for coef, vp, e, k, m in _mono_rect_terms(i, a, b):
                    for p, cvp in enumerate(cv):
                        if cvp == 0.0:
                            continue
                        total += cui * cvp * coef \
                            * _int_v_poly_shifted(vp + p, e, k, m, *ends[e])
    return total
