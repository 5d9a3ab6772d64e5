"""Hermite polynomials, Stirling partition numbers, and log-gamma beta values.

The Hermite family used throughout is the probabilists' normalization,

    h_0 = 1,  h_1 = x,  h_n(x) = x h_{n-1}(x) - (n - 1) h_{n-2}(x),

with generating function exp(tx - t^2/2) = sum_n t^n/n! h_n(x) and the
binomial shift identity sum_k C(l,k) x^k h_{l-k}(y) = h_l(x + y).

Stirling numbers of the second kind {j, k} count partitions of a j-set into
k nonempty blocks; they are kept as exact Python integers (arbitrary
precision, so "overflow" can only happen when converting to float, which
raises OverflowError at the conversion site).
"""

from __future__ import annotations

import math


def hermite_eval(n: int, x):
    """h_n(x) by the three-term recurrence (stable; x may be an ndarray)."""
    if n < 0:
        raise ValueError("Hermite degree must be >= 0")
    if n == 0:
        return 1.0 if not hasattr(x, "shape") else x * 0.0 + 1.0
    prev2 = 1.0
    prev = x
    for m in range(2, n + 1):
        prev, prev2 = x * prev - (m - 1) * prev2, prev
    return prev


# rows[j][k] holds {j, k}, grown on demand
_STIRLING_ROWS = [[1]]


def stirling2(j: int, k: int) -> int:
    """Stirling number of the second kind {j, k}, exact."""
    if j < 0 or k < 0:
        raise ValueError("Stirling indices must be >= 0")
    if k > j:
        return 0
    rows = _STIRLING_ROWS
    while len(rows) <= j:
        m = len(rows)
        prev = rows[m - 1]
        row = [0] * (m + 1)
        for i in range(1, m + 1):
            row[i] = (prev[i] * i if i < len(prev) else 0) + prev[i - 1]
        rows.append(row)
    return rows[j][k]


def stirling_falling_sum(p: int, n: int) -> int:
    """Exact sum_{l=0}^{p} p!/(p-l)! {2n, l}, which collapses to p^(2n).

    The terms past l = 2n vanish, since {2n, l} = 0 there, so the loop stops
    at min(p, 2n)."""
    if p < 0 or n < 0:
        raise ValueError("need p >= 0 and n >= 0")
    total = 0
    falling = 1
    for l in range(min(p, 2 * n) + 1):
        total += falling * stirling2(2 * n, l)
        falling *= p - l
    return total


def beta_fn(x: float, y: float) -> float:
    """Euler beta B(x, y) through log-gamma, valid for x, y > 0."""
    if x <= 0.0 or y <= 0.0:
        raise ValueError("beta_fn requires positive arguments")
    return math.exp(math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y))
