"""Reference values computed apart from fbmseries, from numpy and math only.

Under the fractional conditional expectation E~[. | F_r] the path samples
are jointly Gaussian around their frozen values B_{t ^ r} with the
conditional covariance

    C(s, t) = R(s, t) - R(s ^ r, t ^ r),   R(s, t) = (s^2H + t^2H - |t - s|^2H) / 2.

Every functional checked here is P(X) exp(a . X) for a polynomial P in a
Gaussian vector X of path samples B(t) and time integrals IB(0, T), so its
conditional expectation is exp(a . m + a'Ca / 2) E[P(Y)], Y ~ N(m + Ca, C),
and E[P(Y)] is the terminating heat series of P (Isserlis pairing).  The
same heat operator, applied with the exponential kept, gives the level
partial sums of the exponential formula.
"""

from __future__ import annotations

import math

import numpy as np


def fbm_cov(s, t, h: float):
    """R(s, t); s and t may be arrays."""
    p = 2.0 * h
    return 0.5 * (s ** p + t ** p - abs(t - s) ** p)


def _int_cov(a: float, big_t: float, h: float) -> float:
    """int_0^T R(a, u) du for 0 <= a <= T."""
    q = 2.0 * h + 1.0
    return 0.5 * (a ** (2.0 * h) * big_t + big_t ** q / q
                  - (a ** q + (big_t - a) ** q) / q)


class Point:
    """The sample B(t)."""

    def __init__(self, t: float):
        self.t = float(t)

    def text(self) -> str:
        return f"B({self.t!r})"

    def frozen(self, r: float, times, values):
        return values[:, _col(times, min(self.t, r))]


class Integral:
    """The time integral IB(0, T) = int_0^T B_s ds."""

    def __init__(self, big_t: float):
        self.big_t = float(big_t)

    def text(self) -> str:
        return f"IB(0,{self.big_t!r})"

    def frozen(self, r: float, times, values):
        # the path's own trapezoid up to r, then B_r held to T
        c = min(self.big_t, r)
        k = _col(times, c)
        head = np.trapezoid(values[:, :k + 1], np.asarray(times[:k + 1]), axis=-1)
        return head + (self.big_t - c) * values[:, k]


def _col(times, t: float) -> int:
    for i, s in enumerate(times):
        if abs(s - t) <= 1e-12:
            return i
    raise ValueError(f"time {t} is not on the path grid")


def cond_cov(x, y, r: float, h: float) -> float:
    """Conditional covariance of two Gaussian coordinates given F_r."""
    if isinstance(x, Integral) and isinstance(y, Point):
        x, y = y, x
    if isinstance(x, Point) and isinstance(y, Point):
        return fbm_cov(x.t, y.t, h) - fbm_cov(min(x.t, r), min(y.t, r), h)
    if isinstance(x, Point):
        big_t, a = y.big_t, x.t
        c = min(r, big_t)
        ac = min(a, c)
        return (_int_cov(a, big_t, h) - _int_cov(ac, c, h)
                - (big_t - c) * fbm_cov(ac, c, h))
    if x.big_t != y.big_t:
        raise ValueError("integrals over different horizons are not supported")
    big_t, c = x.big_t, min(r, x.big_t)
    full = big_t ** (2.0 * h + 2.0) / (2.0 * h + 2.0)
    seen = (c ** (2.0 * h + 2.0) / (2.0 * h + 2.0)
            + 2.0 * (big_t - c) * _int_cov(c, c, h)
            + (big_t - c) ** 2 * c ** (2.0 * h))
    return full - seen


class GaussFunctional:
    """F = (sum_k c_k prod_j X_j^{e_kj}) * exp(sum_j a_j X_j).

    coords: the Gaussian coordinates X_j (Point or Integral);
    poly: {exponent tuple: coefficient}; expo: one coefficient a_j per
    coordinate (all zero for a pure polynomial).
    """

    def __init__(self, coords, poly: dict, expo=None):
        self.coords = list(coords)
        self.poly = {tuple(e): float(c) for e, c in poly.items()}
        self.expo = [float(a) for a in (expo or [0.0] * len(self.coords))]

    def text(self) -> str:
        """The functional in the fbmseries expression language."""
        names = [x.text() for x in self.coords]
        monos = []
        for e, c in self.poly.items():
            parts = [repr(c)] if c != 1.0 or not any(e) else []
            parts += [n if k == 1 else f"{n}^{k}"
                      for n, k in zip(names, e) if k]
            monos.append("*".join(parts))
        lin = [f"{a!r}*{n}" for a, n in zip(self.expo, names) if a]
        if not lin:
            return "+".join(monos)
        expo = "exp(" + "+".join(lin) + ")"
        if monos == ["1.0"]:
            return expo
        return ("(" + "+".join(monos) + ")" if len(monos) > 1 else monos[0]) + "*" + expo

    def _moments(self, r, h, times, values):
        m = [x.frozen(r, times, values) for x in self.coords]
        n = len(self.coords)
        cov = np.array([[cond_cov(self.coords[i], self.coords[j], r, h)
                         for j in range(n)] for i in range(n)])
        return m, cov

    def conditional(self, r: float, h: float, times, values):
        """E~[F | F_r] on each path (rows of values, columns at times)."""
        m, cov = self._moments(r, h, times, values)
        a = np.asarray(self.expo)
        shift = cov @ a
        mu = [mj + sj for mj, sj in zip(m, shift)]
        lead = np.exp(sum(aj * mj for aj, mj in zip(a, m)) + 0.5 * a @ cov @ a)
        total, p, i = 0.0, self.poly, 0
        while p:
            total = total + _poly_eval(p, mu) / math.factorial(i)
            p = _heat(p, cov, None)
            i += 1
        return lead * total

    def level_terms(self, r: float, h: float, times, values, order: int):
        """The terms (L^i F)(frozen path) / i!, i = 0 .. order.

        L = 1/2 sum_jk C_jk d_j d_k acts on P exp(a . x) with the
        exponential kept; these are the exponential formula's levels.
        """
        m, cov = self._moments(r, h, times, values)
        lead = np.exp(sum(aj * mj for aj, mj in zip(self.expo, m)))
        out, p = [], self.poly
        for i in range(order + 1):
            out.append(lead * _poly_eval(p, m) / math.factorial(i))
            p = _heat(p, cov, self.expo)
        return out

    def level_sums(self, r: float, h: float, times, values, order: int):
        """Partial sums through `order` of the level terms."""
        out, acc = [], 0.0
        for term in self.level_terms(r, h, times, values, order):
            acc = acc + term
            out.append(acc)
        return out


def _poly_eval(poly: dict, xs):
    total = 0.0
    for e, c in poly.items():
        term = c
        for x, k in zip(xs, e):
            if k:
                term = term * x ** k
        total = total + term
    return total


def _shifted_derivative(poly: dict, k: int, a) -> dict:
    """(d/dx_k + a_k) P, the derivative of P exp(a . x) with exp dropped."""
    out = {}
    for e, c in poly.items():
        if e[k]:
            d = list(e)
            d[k] -= 1
            d = tuple(d)
            out[d] = out.get(d, 0.0) + c * e[k]
        if a is not None and a[k]:
            out[e] = out.get(e, 0.0) + c * a[k]
    return {e: c for e, c in out.items() if c != 0.0}


def _heat(poly: dict, cov, a) -> dict:
    """L P = 1/2 sum_jk C_jk (d_j + a_j)(d_k + a_k) P."""
    out = {}
    n = cov.shape[0]
    firsts = [_shifted_derivative(poly, j, a) for j in range(n)]
    for j in range(n):
        for k in range(n):
            if cov[j, k] == 0.0:
                continue
            for e, c in _shifted_derivative(firsts[j], k, a).items():
                out[e] = out.get(e, 0.0) + 0.5 * cov[j, k] * c
    return {e: c for e, c in out.items() if c != 0.0}


def lognormal(sigma: float, big_t: float, h: float) -> float:
    """E[exp(sigma B_T)] = exp(sigma^2 T^2H / 2)."""
    return math.exp(0.5 * sigma * sigma * big_t ** (2.0 * h))


def merton(big_t: float, h: float) -> float:
    """E[exp(int_0^T B_s ds)] = exp(T^(2H+2) / (4H + 4))."""
    return math.exp(big_t ** (2.0 * h + 2.0) / (4.0 * h + 4.0))


def exp_terms(x: float, order: int) -> list:
    """x^i / i!, i = 0 .. order: the levels of exp(x)."""
    return [x ** i / math.factorial(i) for i in range(order + 1)]


def beta(x: float, y: float) -> float:
    return math.exp(math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y))


def cir_coefficients(h: float) -> tuple:
    """(c1, c2) of E[exp(-int_0^T B^2)] = 1 + c1 T^(2H+1) + c2 T^(4H+2) + ..."""
    c1 = -1.0 / (2.0 * h + 1.0)
    c2 = ((8.0 * h * h + 18.0 * h + 5.0)
          / (4.0 * (2.0 * h + 1.0) ** 2 * (4.0 * h + 1.0))
          - beta(2.0 * h + 1.0, 2.0 * h + 2.0) / (2.0 * h + 1.0))
    return c1, c2


def cir_truncation_budget(big_t: float, h: float) -> float:
    """Bound on the series terms beyond c2: 8 x^3 / (1 - 2x), x = T^(2H+1)/(2H+1)."""
    x = big_t ** (2.0 * h + 1.0) / (2.0 * h + 1.0)
    return 8.0 * x ** 3 / (1.0 - 2.0 * x) if 2.0 * x < 1.0 else math.inf


def ib2_conditional(r: float, big_t: float, h: float, times, values):
    """E~[int_0^T B^2 | F_r]: own trapezoid on [0, r], B_r^2 held, variance added."""
    k = _col(times, r)
    head = np.trapezoid(values[:, :k + 1] ** 2, np.asarray(times[:k + 1]), axis=-1)
    q = 2.0 * h + 1.0
    var = (big_t ** q - r ** q) / q - r ** (2.0 * h) * (big_t - r)
    return head + (big_t - r) * values[:, k] ** 2 + var
