"""Acceptance gate: nine criteria covering engines, closed forms, and oracles.

Each test prints one CRITERION line (PASS/FAIL plus the measured margins)
and then asserts, so a plain `pytest -v tests/test_acceptance.py` doubles
as the acceptance report.
"""

import itertools
import math
import time

import numpy as np

from oracles import (hermite_coefficients, hermite_generating_check,
                     hermite_shift_identity_gap, quad_phi_moment_alg, quad_rect)
from fbmseries.applications import (cir_mc_check, cir_small_t,
                                    lognormal_cf_series, lognormal_moment)
from fbmseries.expformula import cir_fourth_order_integral, exp_series
from fbmseries.fbm import McConfig, covariance, mc_expect, simulate
from fbmseries.functional import (GridPath, TimeGrid, TimeIntBSq, evaluate,
                                  fbm_sample, freeze, make_exp, make_product,
                                  make_sum, directional, scale, time_int_b,
                                  to_sexpr, grid_partials)
from fbmseries.kernel import Interval, PiecewisePoly, phi_poly_moment, rect_integral
from fbmseries.parser import parse
from fbmseries.special import hermite_eval, stirling2, stirling_falling_sum
from fbmseries.taylor import assumption_a_sequence, backward_taylor


def _report(num: int, desc: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"CRITERION {num} [{status}] {desc}{suffix}")
    assert ok, f"criterion {num} failed: {desc}  {detail}"


def _rel_gap(a, b):
    """Elementwise |a - b| / max(|a|, |b|), zero when both vanish."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    scale_ = np.maximum(np.abs(a), np.abs(b))
    diff = np.abs(a - b)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.where(scale_ > 0.0, diff / np.where(scale_ > 0, scale_, 1.0), 0.0)
    return float(np.max(out))


def test_criterion_1_integrated_exponential_reaches_closed_form():
    worst_rel, worst_dt = 0.0, 0.0
    for big_t, h in [(1.0, 0.6), (1.0, 0.75), (1.5, 0.9)]:
        f = make_exp(time_int_b((0.0,), big_t))
        t0 = time.perf_counter()
        res = exp_series(f, 0.0, big_t, h, order=30)
        got = float(evaluate(res.value, h))
        dt = time.perf_counter() - t0
        want = math.exp(big_t ** (2 * h + 2) / (4 * h + 4))
        worst_rel = max(worst_rel, abs(got - want) / want)
        worst_dt = max(worst_dt, dt)
    _report(1, "series for exp(int_0^T B) reaches exp(T^(2H+2)/(4H+4)) by order 30",
            worst_rel <= 1e-10 and worst_dt <= 1.0,
            f"max rel err {worst_rel:.2e}, max time {worst_dt:.3f}s")


def test_criterion_2_grid_expansion_reproduces_closed_forms_pathwise():
    t0 = time.perf_counter()
    path_grid = TimeGrid((0.0, 0.25, 0.5, 0.75, 1.0))
    expand_grid = TimeGrid((0.0, 0.5, 1.0))
    sigma = 0.5
    worst, details = 0.0, []
    for h in (0.6, 0.8):
        ens = simulate(path_grid, h, McConfig(n_paths=1000, seed=101))
        path = ens.as_grid_path()
        b = {t: ens.values[:, path_grid.times.index(t)] for t in path_grid.times}

        # terminal exponential, truncation order picked by the tail bound
        f = make_exp(scale(fbm_sample(1.0), sigma))
        sup = lambda m: sigma ** m * math.exp(sigma ** 2)
        bounds = assumption_a_sequence(f, 0.25, expand_grid, 40, h, sup)
        order = next(n for n, v in enumerate(bounds) if v < 1e-8)
        got = backward_taylor(f, 0.25, expand_grid, order, h, path=path).value
        want = np.exp(sigma * b[0.25] + 0.5 * sigma ** 2 * (1.0 - 0.25 ** (2 * h)))
        gap_exp = _rel_gap(got, want)

        # two-time cubic, conditioning before the inner time
        f = parse("B(0.5)^2*B(1)")
        got = backward_taylor(f, 0.25, expand_grid, 6, h, path=path).value
        want = b[0.25] ** 3 + b[0.25] * (1.0 + 2.0 * 0.5 ** (2 * h)
                                         - 3.0 * 0.25 ** (2 * h) - 0.5 ** (2 * h))
        gap_10 = _rel_gap(got, want)

        # two-time cubic, conditioning after the inner time
        got = backward_taylor(f, 0.75, expand_grid, 6, h, path=path).value
        want = b[0.75] * b[0.5] ** 2 + b[0.5] * (1.0 - 0.75 ** (2 * h)
                                                 - 0.5 ** (2 * h) + 0.25 ** (2 * h))
        gap_11 = _rel_gap(got, want)

        worst = max(worst, gap_exp, gap_10, gap_11)
        details.append(f"H={h}: exp {gap_exp:.1e} (order {order}), "
                       f"early-r {gap_10:.1e}, late-r {gap_11:.1e}")
    dt = time.perf_counter() - t0
    _report(2, "grid expansion matches closed-form conditionals on 1000 paths",
            worst <= 1e-8 and dt <= 30.0,
            "; ".join(details) + f"; total {dt:.1f}s")


def test_criterion_3_engines_agree_on_two_time_cubic():
    f = parse("B(0.5)^2*B(1)")
    h = 0.7
    path_grid = TimeGrid((0.0, 0.25, 0.5, 0.75, 1.0))
    path = simulate(path_grid, h, McConfig(n_paths=1000, seed=303)).as_grid_path()
    expand_grid = TimeGrid((0.0, 0.5, 1.0))
    pairs = []
    for r in (0.0, 0.25, 0.75):
        a = backward_taylor(f, r, expand_grid, 6, h, path=path).value
        c = exp_series(f, r, 1.0, h, order=4, path=path).value
        pairs.append((np.asarray(a, dtype=float), np.asarray(c, dtype=float)))
    # at r = 0 conditioning annihilates the cubic: one engine reaches the
    # zero symbolically, the other by float cancellation, so entries below
    # double-precision resolution of the ensemble scale compare absolutely
    floor = 1e-12 * max(max(np.max(np.abs(a)), np.max(np.abs(c)))
                        for a, c in pairs)
    worst_rel, worst_small = 0.0, 0.0
    for a, c in pairs:
        scale_ = np.maximum(np.abs(a), np.abs(c))
        diff = np.abs(a - c)
        big = scale_ > floor
        if np.any(big):
            worst_rel = max(worst_rel, float(np.max(diff[big] / scale_[big])))
        if np.any(~big):
            worst_small = max(worst_small, float(np.max(diff[~big])))
    _report(3, "backward expansion and exponential-formula engine agree pathwise",
            worst_rel <= 1e-9 and worst_small <= floor,
            f"max rel gap {worst_rel:.2e} over r in {{0, 0.25, 0.75}}; "
            f"near-zero residues <= {worst_small:.1e} (floor {floor:.1e})")


def test_criterion_4_fourth_order_coefficient_three_ways():
    t0 = time.perf_counter()
    worst_closed, worst_quad = 0.0, 0.0
    for h in (0.55, 0.65, 0.75, 0.85, 0.95):
        c2 = cir_small_t(1.0, h).c2
        closed = sum(cir_fourth_order_integral(1.0, h, method="closed"))
        quad = sum(cir_fourth_order_integral(1.0, h, method="quadrature"))
        worst_closed = max(worst_closed, abs(closed - c2) / abs(c2))
        worst_quad = max(worst_quad, abs(quad - c2) / abs(c2))
    dt = time.perf_counter() - t0
    _report(4, "fourth-order coefficient: closed forms and simplex quadrature agree",
            worst_closed <= 1e-8 and worst_quad <= 1e-6 and dt <= 60.0,
            f"closed {worst_closed:.1e}, quadrature {worst_quad:.1e}, {dt:.1f}s")


def test_criterion_5_squared_path_exponential_monte_carlo():
    chk = cir_mc_check(0.3, 0.7, McConfig(n_paths=200_000, seed=1234,
                                          grid_refinement=64))
    gap = abs(chk.mc - chk.series)
    ok = chk.refinement_gap < chk.stderr and gap <= max(chk.band,
                                                        chk.truncation_budget)
    _report(5, "Monte Carlo matches the small-horizon expansion within bands",
            ok, f"|mc-series| {gap:.2e} vs band {chk.band:.2e} / "
                f"budget {chk.truncation_budget:.2e}; refinement gap "
                f"{chk.refinement_gap:.2e} < se {chk.stderr:.2e}")


def test_criterion_6_lognormal_moments():
    worst_closed, worst_mc = 0.0, 0.0
    for k, (p, sigma) in enumerate((p, s) for p in (1, 2, 3, 4)
                                   for s in (0.3, 0.5)):
        got = lognormal_moment(p, 1.0, 0.75, sigma, n_max=60)
        want = math.exp(p * p * sigma * sigma / 2.0)
        worst_closed = max(worst_closed, abs(got - want) / want)
        est = mc_expect(make_exp(scale(fbm_sample(1.0), p * sigma)), 0.75,
                        McConfig(n_paths=200_000, seed=2000 + k))
        worst_mc = max(worst_mc, abs(got - est.estimate) / (4.0 * est.stderr))
    stirling_ok = all(stirling_falling_sum(p, n) == p ** (2 * n)
                      for p in range(7) for n in range(7))
    _report(6, "lognormal moments: closed form, Monte Carlo, Stirling identity",
            worst_closed <= 1e-10 and worst_mc <= 1.0 and stirling_ok,
            f"closed {worst_closed:.1e}, worst |gap|/4se {worst_mc:.2f}, "
            f"falling-sum identity {'exact' if stirling_ok else 'broken'}")


def test_criterion_7_characteristic_function_terms_grow():
    ser = lognormal_cf_series(1.0, 1.0, 0.75, 1.0, 0.0, n_max=30)
    mags = [abs(t) for t in ser.terms]
    peak = max(mags)
    _report(7, "characteristic-function terms grow by n <= 30 (asymptotic series)",
            peak > mags[1],
            f"max |term| {peak:.2e} at n={mags.index(peak)} vs |term_1| {mags[1]:.2e}")


def test_criterion_8_kernel_closed_forms_match_quadrature():
    rng = np.random.default_rng(88)
    worst = 0.0
    n_cross = 0
    for k in range(24):
        a, b = np.sort(rng.uniform(0.0, 2.0, 2) + np.array([0.0, 0.05]))
        if k % 2 == 0:
            # force the rectangle across the u = v diagonal
            c = max(0.0, 0.5 * (a + b) - (b - a) / 3.0)
            d = 0.5 * (a + b) + (b - a) / 3.0
        else:
            c, d = np.sort(rng.uniform(0.0, 2.0, 2) + np.array([0.0, 0.05]))
        h = rng.uniform(0.55, 0.95)
        n_cross += (c < a < d) or (c < b < d) or (a <= c and b >= d)
        got = rect_integral(Interval(a, b), Interval(c, d), h)
        want = quad_rect(lambda u: 1.0, a, b, lambda v: 1.0, c, d, h,
                         epsabs=1e-13, epsrel=1e-11)
        worst = max(worst, abs(got - want) / abs(want))
    for _ in range(176):
        lo, hi = np.sort(rng.uniform(0.0, 1.5, 2) + np.array([0.0, 0.05]))
        coeffs = tuple(rng.uniform(0.2, 1.5, rng.integers(1, 4)))
        v = rng.uniform(0.0, 1.6)
        h = rng.uniform(0.55, 0.95)
        poly = PiecewisePoly.from_poly(coeffs, lo, hi)
        got = phi_poly_moment(poly, Interval(lo, hi), v, h)
        want = quad_phi_moment_alg(
            lambda u: float(np.polynomial.polynomial.polyval(u, np.asarray(coeffs))),
            lo, hi, v, h)
        worst = max(worst, abs(got - want) / abs(want))

    grid_gap = 0.0
    for s in np.linspace(0.1, 1.0, 10):
        for t in np.linspace(0.1, 1.0, 10):
            cov = covariance(s, t, 0.75)
            inner = rect_integral(Interval(0.0, s), Interval(0.0, t), 0.75)
            grid_gap = max(grid_gap, abs(cov - inner) / abs(cov))
    _report(8, "kernel integrals match adaptive quadrature; covariance grid exact",
            worst <= 1e-9 and grid_gap <= 1e-14 and n_cross >= 10,
            f"200 randomized inputs ({n_cross} diagonal-crossing), worst "
            f"{worst:.1e}; covariance grid {grid_gap:.1e}")


def test_criterion_9_property_suite():
    checks = {}

    # Hermite recurrence on exact coefficients, l <= 20
    ok = True
    for l in range(1, 20):
        lo, mid, hi = (hermite_coefficients(n) for n in (l - 1, l, l + 1))
        for k in range(l + 2):
            want = (mid[k - 1] if k >= 1 else 0.0) - l * (lo[k] if k < l else 0.0)
            ok = ok and hi[k] == want
    checks["hermite recurrence"] = ok

    # shift identity and generating-function gap decay
    rng = np.random.default_rng(5)
    ok = True
    for l in range(21):
        x, y = rng.uniform(-1.5, 1.5, 2)
        ok = ok and hermite_shift_identity_gap(l, x, y) <= 1e-9 * max(
            1.0, abs(hermite_eval(l, x + y)))
    checks["hermite shift identity"] = ok
    gaps = [hermite_generating_check(0.6, 0.8, n) for n in (2, 8, 20)]
    checks["generating-function decay"] = gaps[0] > gaps[-1] and gaps[-1] < 1e-11

    # Stirling numbers against brute-force set-partition counting, j <= 8
    def count_partitions(j, k):
        total = 0

        def walk(i, blocks):
            nonlocal total
            if i == j:
                total += blocks == k
                return
            for b in range(blocks + 1):
                walk(i + 1, blocks + (b == blocks))

        if j == 0:
            return 1 if k == 0 else 0
        walk(0, 0)
        return total

    checks["stirling brute force"] = all(
        stirling2(j, k) == count_partitions(j, k)
        for j in range(9) for k in range(j + 1))

    # derivative product rule, evaluated rather than structural
    times = tuple(np.linspace(0.0, 1.0, 41))
    vals = np.cumsum(rng.standard_normal(len(times))) * 0.1
    vals[0] = 0.0
    path = GridPath(times, vals)
    pairs = [(parse("B(0.5)^2"), parse("B(1)")),
             (parse("exp(B(0.75))"), parse("B(0.5)*B(1)")),
             (parse("IB(0,1)"), parse("B(0.5)^3"))]
    ok = True
    for x, y in pairs:
        lhs = directional(make_product([x, y]), "u")
        rhs = make_sum([make_product([x, directional(y, "u")]),
                        make_product([y, directional(x, "u")])])
        for u in (0.2, 0.6, 0.9):
            a = evaluate(lhs, 0.7, path, {"u": u})
            b = evaluate(rhs, 0.7, path, {"u": u})
            ok = ok and abs(a - b) <= 1e-12 * max(1.0, abs(a))
    checks["product rule"] = ok

    # grid partials against central finite differences, |q| <= 3; each
    # increment direction bumps every sample at times >= t_k, and a mixed
    # or repeated partial is the product of one central stencil per order
    grid = TimeGrid((0.0, 0.5, 1.0))
    f = parse("B(0.5)^3*B(1)^2")
    ts = np.asarray(times)
    eps = 1e-4

    def central(taus):
        total = 0.0
        for sgns in itertools.product((1.0, -1.0), repeat=len(taus)):
            v = vals.copy()
            for s, tau in zip(sgns, taus):
                v = v + s * eps * (ts >= tau)
            total += math.prod(sgns) * evaluate(f, path=GridPath(times, v))
        return total / (2.0 * eps) ** len(taus)

    ok = True
    for q, taus in (((1, 0), (0.5,)), ((1, 1), (0.5, 1.0)),
                    ((2, 1), (0.5, 0.5, 1.0))):
        sym = evaluate(grid_partials(f, grid, q), path=path)
        fd = central(taus)
        ok = ok and abs(fd - sym) <= 1e-6 * max(1.0, abs(sym))
    checks["finite differences"] = ok

    # freezing is idempotent
    fs = [parse("B(0.5)^2*B(1)"), parse("exp(B(1))"),
          make_sum([TimeIntBSq(0.0, 1.0), time_int_b((0.25,), 1.0)])]
    checks["freeze idempotence"] = all(
        to_sexpr(freeze(freeze(g, r), r)) == to_sexpr(freeze(g, r))
        for g in fs for r in (0.25, 0.6))

    # seed determinism
    g = TimeGrid((0.0, 0.5, 1.0))
    e1 = simulate(g, 0.7, McConfig(n_paths=50, seed=9))
    e2 = simulate(g, 0.7, McConfig(n_paths=50, seed=9))
    e3 = simulate(g, 0.7, McConfig(n_paths=50, seed=10))
    checks["seed determinism"] = (np.array_equal(e1.values, e2.values)
                                  and not np.array_equal(e1.values, e3.values))

    bad = [name for name, good in checks.items() if not good]
    _report(9, "property suite (identities, derivative rules, determinism)",
            not bad, "all green" if not bad else "failing: " + ", ".join(bad))
