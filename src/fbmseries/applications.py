"""Worked models built on the conditional-expectation engines.

Three self-contained case studies for fractional Brownian motion with
Hurst index H > 1/2, each pairing a closed-form answer with an
independent computational route so either side can certify the other.

Bond price under an integrated-fBm exponent.  For F = exp(int_0^T B_s ds)
the conditional-expectation series collapses at r = 0 to

    E~[F] = sum_i gamma^i / i!,      gamma = T^(2H+2) / (4H + 4),

because every derivative level factorizes into i copies of the same
kernel cluster.  merton_bond_price reports the explicit partial sums,
the series-engine partial sums, and the limit exp(T^(2H+2)/(4H+4)).

Small-horizon expansion of E[exp(-int_0^T B_s^2 ds)].  Expanding the
exponential and using Wick pairings of B gives

    E ~ 1 + c1 T^(2H+1) + c2 T^(4H+2),      c1 = -1/(2H+1),
    c2 = (8H^2 + 18H + 5) / (4 (2H+1)^2 (4H+1)) - Beta(2H+1, 2H+2) / (2H+1).

The fourth-order coefficient is also the sum of three ordered kernel
integrals (cir_fourth_order_integral), giving an internal cross-check,
and cir_mc_check compares the truncated expansion against Monte Carlo
with an explicit truncation budget.

Lognormal series.  For S = exp(mu + sigma B_T) the heat-semigroup
expansion in the variance parameter gives, for a payoff G,

    E[G(S)] "=" sum_n (T^(2H) sigma^2 / 2)^n / n! * (d/dmu)^(2n) G(e^mu),

where (d/dmu)^m G(e^mu) = sum_k S(m, k) e^(k mu) G^(k)(e^mu) with S(m, k)
the Stirling numbers of the second kind.  For the characteristic function
G(y) = exp(izy) the terms grow factorially and the series diverges for
every z != 0; the partial sums are still the asymptotic expansion in
T^(2H), and lognormal_cf_series exposes them term by term.  For moments
G(y) = y^p the Stirling sum collapses to p^(2n) and the series converges
to exp(p^2 T^(2H) sigma^2 / 2).
"""

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from .expformula import EngineError, cir_fourth_order_integral, exp_series
from .fbm import McConfig, simulate
from .functional import GridPath, TimeGrid, evaluate, make_exp, scale, time_int_b
from .kernel import _hval
from .special import beta_fn, stirling2, stirling_falling_sum


def _require_finite(**values):
    """Refuse a NaN or infinite input by name, so that a bad argument is
    told apart from an output that overflows."""
    for name, value in values.items():
        if not cmath.isfinite(value):
            raise ValueError(f"{name} must be finite, got {name}={value}")


@dataclass(frozen=True)
class MertonResult:
    """Bond-price series for F = exp(int_0^T B_s ds) conditioned at r = 0.

    partial_sums come from the explicit per-order terms gamma^i / i!,
    engine_sums from the generic series engine run on the functional
    itself; the two routes share no code path beyond the kernel moments.
    rel_gaps measures the explicit partial sums against closed_form.
    """

    big_t: float
    h: float
    partial_sums: tuple
    engine_sums: tuple
    closed_form: float
    rel_gaps: tuple


def merton_bond_price(big_t, h, order: int = 12) -> MertonResult:
    """Dual-route evaluation of E~[exp(int_0^T B_s ds)] up to `order`."""
    hh = _hval(h)
    big_t = float(big_t)
    _require_finite(T=big_t)
    if big_t <= 0.0:
        raise ValueError("horizon must be positive")
    if order < 0:
        raise ValueError("order must be >= 0")
    gamma = big_t ** (2.0 * hh + 2.0) / (4.0 * hh + 4.0)
    closed = math.exp(gamma)

    sums, acc = [], 0.0
    for i in range(order + 1):
        acc += gamma ** i / math.factorial(i)
        sums.append(acc)

    f = make_exp(time_int_b((0.0,), big_t))
    res = exp_series(f, 0.0, big_t, hh, order)
    engine = tuple(float(evaluate(ps)) for ps in res.partial_sums)

    gaps = tuple(abs(s - closed) / closed for s in sums)
    return MertonResult(big_t, hh, tuple(sums), engine, closed, gaps)


@dataclass(frozen=True)
class CirExpansion:
    """Small-T expansion 1 + c1 T^(2H+1) + c2 T^(4H+2) of E[e^(-int B^2)].

    c2 carries the closed Beta-function form; c2_integral rebuilds it from
    the three ordered fourth-derivative kernel integrals.
    """

    big_t: float
    h: float
    c0: float
    c1: float
    c2: float
    c2_integral: float
    approx: float


def cir_small_t(big_t, h) -> CirExpansion:
    """Truncated expansion of E[exp(-int_0^T B_s^2 ds)] for small T."""
    hh = _hval(h)
    big_t = float(big_t)
    _require_finite(T=big_t)
    if big_t < 0.0:
        raise ValueError("horizon must be >= 0")
    c1 = -1.0 / (2.0 * hh + 1.0)
    c2 = ((8.0 * hh * hh + 18.0 * hh + 5.0)
          / (4.0 * (2.0 * hh + 1.0) ** 2 * (4.0 * hh + 1.0))
          - beta_fn(2.0 * hh + 1.0, 2.0 * hh + 2.0) / (2.0 * hh + 1.0))
    # rebuild c2 from the ordered-domain integrals; pure algebra, so any
    # disagreement beyond roundoff means one of the closed forms is wrong.
    # The parts scale as T^(4H+2); where that is not a normal float (T = 0
    # included) they are taken at the unit horizon instead
    normal = big_t ** (4.0 * hh + 2.0) >= sys.float_info.min
    scale_t = big_t if normal else 1.0
    parts = cir_fourth_order_integral(scale_t, hh)
    c2_int = sum(parts) / scale_t ** (4.0 * hh + 2.0)
    if abs(c2_int - c2) > 1e-10 * abs(c2):
        raise EngineError("fourth-order coefficient routes disagree")
    approx = 1.0 + c1 * big_t ** (2.0 * hh + 1.0) + c2 * big_t ** (4.0 * hh + 2.0)
    return CirExpansion(big_t, hh, 1.0, c1, c2, c2_int, approx)


@dataclass(frozen=True)
class CirMcCheck:
    """Monte Carlo versus truncated expansion for E[e^(-int_0^T B^2 ds)].

    band is the 3-standard-error band around mc; refinement_gap is the
    change in the estimate when the integration grid is doubled on the
    same simulated paths, so it isolates trapezoid bias from sampling
    noise.  truncation_budget bounds the series terms beyond c2:
    ||int B^2||_k <= ((2k-1)!!)^(1/k) T^(2H+1)/(2H+1) by the integral
    Minkowski inequality, and (2k-1)!!/k! <= 2^k, so the tail is at most
    sum_{k>=3} (2x)^k = 8 x^3 / (1 - 2x) with x = T^(2H+1)/(2H+1).
    """

    mc: float
    series: float
    stderr: float
    band: float
    refinement_gap: float
    truncation_budget: float
    n_paths: int


def cir_mc_check(big_t, h, cfg: McConfig) -> CirMcCheck:
    """Compare Monte Carlo for E[exp(-int_0^T B_s^2 ds)] with cir_small_t.

    The time integral uses the trapezoid rule on a uniform grid with
    cfg.grid_refinement cells; the same paths restricted to half the
    cells give the reported refinement gap.
    """
    hh = _hval(h)
    big_t = float(big_t)
    _require_finite(T=big_t)
    if big_t < 0.0:
        raise ValueError("horizon must be >= 0")
    if big_t == 0.0:
        return CirMcCheck(1.0, 1.0, 0.0, 0.0, 0.0, 0.0, cfg.n_paths)
    if cfg.grid_refinement < 1:
        raise ValueError("grid refinement must be >= 1")
    if cfg.n_paths < 2:
        raise ValueError("standard error needs at least two paths")

    f = make_exp(scale(time_int_b((0.0,), big_t, 2), -1.0))
    fine_grid = TimeGrid((0.0, big_t)).refine(2 * cfg.grid_refinement)

    def fine_and_coarse(ens):
        coarse = GridPath(ens.grid.times[::2], ens.values[:, ::2])
        return np.stack([evaluate(f, path=ens.as_grid_path()), evaluate(f, path=coarse)])

    vals_fine, vals_coarse = simulate(fine_grid, hh, cfg, each=fine_and_coarse)

    mc = float(np.mean(vals_fine))
    se = float(np.std(vals_fine, ddof=1) / math.sqrt(len(vals_fine)))
    gap = abs(mc - float(np.mean(vals_coarse)))

    series = cir_small_t(big_t, hh).approx
    x = big_t ** (2.0 * hh + 1.0) / (2.0 * hh + 1.0)
    budget = 8.0 * x ** 3 / (1.0 - 2.0 * x) if 2.0 * x < 1.0 else math.inf
    return CirMcCheck(mc, series, se, 3.0 * se, gap, budget, cfg.n_paths)


@dataclass(frozen=True)
class LognormalSeries:
    """Partial sums of the variance expansion of E[G(exp(mu + sigma B_T))].

    terms[n] is the n-th series term; partial_sums[n] their running sum.
    For the characteristic function the terms eventually grow without
    bound for any z != 0 (the series is asymptotic, not convergent), so
    callers should inspect terms before trusting a partial sum.
    """

    z: complex
    big_t: float
    h: float
    sigma: float
    mu: float
    terms: tuple
    partial_sums: tuple

    @property
    def value(self) -> complex:
        return self.partial_sums[-1]


def lognormal_cf_series(z, big_t, h, sigma, mu: float = 0.0,
                        n_max: int = 30) -> LognormalSeries:
    """Term-by-term expansion of E[exp(iz S)], S = exp(mu + sigma B_T).

    Term n is (T^(2H) sigma^2 / 2)^n / n! * sum_k S(2n, k) (iz e^mu)^k
    times exp(iz e^mu), the 2n-th mu-derivative of the n = 0 term.
    """
    hh = _hval(h)
    big_t = float(big_t)
    _require_finite(z=z, T=big_t, sigma=sigma, mu=mu)
    if big_t <= 0.0:
        raise ValueError("horizon must be positive")
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    c = big_t ** (2.0 * hh) * sigma * sigma / 2.0
    w = 1j * complex(z) * math.exp(mu)
    head = cmath.exp(w)
    terms, sums, acc = [], [], 0j
    for n in range(n_max + 1):
        inner = sum(stirling2(2 * n, k) * w ** k for k in range(2 * n + 1))
        term = c ** n / math.factorial(n) * head * inner
        acc += term
        terms.append(term)
        sums.append(acc)
    return LognormalSeries(complex(z), big_t, hh, float(sigma), float(mu),
                           tuple(terms), tuple(sums))


def lognormal_moment(p: int, big_t, h, sigma, n_max: int = 60) -> float:
    """E[exp(p sigma B_T)] via the Stirling falling-factorial reduction.

    For G(y) = y^p the derivative sum is sum_k S(2n, k) (p)_k = p^(2n),
    computed here through the combinatorial route; the series then sums
    to exp(p^2 T^(2H) sigma^2 / 2).
    """
    if p < 0 or p != int(p):
        raise ValueError("moment order must be a nonnegative integer")
    hh = _hval(h)
    big_t = float(big_t)
    _require_finite(T=big_t, sigma=sigma)
    if big_t <= 0.0:
        raise ValueError("horizon must be positive")
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    c = big_t ** (2.0 * hh) * sigma * sigma / 2.0
    acc = 0.0
    for n in range(n_max + 1):
        acc += c ** n / math.factorial(n) * float(stirling_falling_sum(int(p), n))
    return acc
