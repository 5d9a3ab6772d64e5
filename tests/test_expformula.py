"""Second-order integration engine against closed forms and the grid engine."""

import math

import numpy as np
import pytest

from fbmseries import expformula, functional, quadrature
from fbmseries.applications import cir_small_t
from fbmseries.expformula import (
    EngineError,
    cir_fourth_order_integral,
    exp_series,
    second_derivative,
)
from fbmseries.fbm import McConfig, mc_expect
from fbmseries.functional import (
    Expr,
    GridPath,
    OffGridTimeError,
    TimeGrid,
    ZERO,
    collect_terms,
    evaluate,
    expand,
    fbm_sample,
    free_vars,
    freeze,
    make_exp,
    make_power,
    make_product,
    make_sum,
    scale,
    sum_terms,
    time_int_b,
)
from fbmseries.parser import parse
from fbmseries.quadrature import QuadratureError, gauss_nodes, graded_points
from fbmseries.taylor import backward_taylor

from oracles import assumption_b_sequence, derivative_levels, indicator


def _random_path(times, n_paths=None, seed=3):
    """Algebraic identities hold pathwise, so arbitrary values work as paths."""
    rng = np.random.default_rng(seed)
    shape = (len(times),) if n_paths is None else (n_paths, len(times))
    vals = rng.standard_normal(shape)
    vals[..., 0] = 0.0
    return GridPath(times, vals)


def _integrated_exponential(sigma, big_t):
    return make_exp(scale(time_int_b((0.0,), big_t), -sigma))


@pytest.mark.parametrize("big_t,h", [(1.0, 0.6), (1.0, 0.75), (1.5, 0.9)])
def test_integrated_exponential_terms_are_exponential_coefficients(big_t, h):
    # E exp(-sigma int_0^T B) = exp(gamma), gamma = sigma^2 T^(2H+2)/(4H+4),
    # and level i must contribute exactly gamma^i / i!
    sigma = 0.7
    gamma = sigma ** 2 * big_t ** (2 * h + 2) / (4 * h + 4)
    res = exp_series(_integrated_exponential(sigma, big_t), 0.0, big_t, h, 8)
    for i, term in enumerate(res.terms):
        want = gamma ** i / math.factorial(i)
        assert evaluate(term, h) == pytest.approx(want, rel=1e-13)
    total = evaluate(res.partial_sums[-1], h)
    assert total == pytest.approx(math.exp(gamma), rel=1e-9)


def test_high_order_converges_to_closed_form_fast():
    import time

    f = _integrated_exponential(1.0, 1.0)
    exp_series(f, 0.0, 1.0, 0.75, 2)  # warm the caches before timing
    t0 = time.time()
    res = exp_series(f, 0.0, 1.0, 0.75, 30)
    elapsed = time.time() - t0
    total = evaluate(res.partial_sums[-1], 0.75)
    assert abs(total - math.exp(1.0 / 7.0)) / math.exp(1.0 / 7.0) < 1e-12
    assert elapsed < 1.0
    routes = {d["route"] for d in res.diagnostics[2:]}
    assert routes == {"factorized"}


@pytest.mark.parametrize("h", [0.6, 0.8])
@pytest.mark.parametrize("r", [0.0, 0.4])
def test_terminal_exponential_closed_form_pathwise(h, r):
    # E~[exp(s B_T) | F_r] = exp(s B_r + s^2 (T^2H - r^2H)/2); the averaged
    # kernel ranges must reproduce the variance gap exactly for r > 0 too
    sigma, big_t = 0.5, 1.0
    f = make_exp(scale(fbm_sample(big_t), sigma))
    path = _random_path((0.0, r, big_t) if r else (0.0, big_t), n_paths=40)
    res = exp_series(f, r, big_t, h, 25, path=path)
    b_r = path.value(r) if r else 0.0
    want = np.exp(sigma * b_r + sigma ** 2 * (big_t ** (2 * h) - r ** (2 * h)) / 2.0)
    np.testing.assert_allclose(res.partial_sums[-1], want, rtol=1e-10)


@pytest.mark.parametrize("r", [0.0, 0.25, 0.75])
def test_agrees_with_grid_expansion_on_two_time_cubic(r):
    # both engines must produce the same conditional expectation of B_t^2 B_T
    h = 0.7
    grid = TimeGrid((0.0, 0.25, 0.5, 0.75, 1.0))
    f = make_product([make_power(fbm_sample(0.5), 2), fbm_sample(1.0)])
    path = _random_path(grid.times, n_paths=64)
    a = backward_taylor(f, r, grid, 4, h, path=path).partial_sums[-1]
    b = exp_series(f, r, 1.0, h, 3, path=path).partial_sums[-1]
    np.testing.assert_allclose(np.asarray(b), np.asarray(a), atol=1e-12)


def test_polynomial_levels_terminate():
    # each level removes two derivatives, so a cubic dies at level 2
    f = make_product([make_power(fbm_sample(0.5), 2), fbm_sample(1.0)])
    res = exp_series(f, 0.25, 1.0, 0.7, 3, path=_random_path((0.0, 0.25, 0.5, 1.0)))
    assert res.terms[2] == 0.0 and res.terms[3] == 0.0
    assert res.diagnostics[2]["route"] == "vanishes"
    assert res.diagnostics[2]["n_terms"] == 0


def test_conditioning_at_horizon_returns_functional():
    f = make_power(fbm_sample(1.0), 2)
    path = _random_path((0.0, 1.0), n_paths=16)
    res = exp_series(f, 1.0, 1.0, 0.65, 4, path=path)
    np.testing.assert_allclose(res.partial_sums[-1], path.value(1.0) ** 2,
                               rtol=1e-12)


def test_square_integral_level_one_closed_form():
    # D_u D_v exp(-int_0^T B^2) at the zero path is -2 (T - max(u, v)), and
    # iint (T - max(u, v)) phi_H du dv = T^(2H+1)/(2H+1)
    big_t, h = 0.3, 0.7
    f = make_exp(scale(time_int_b((0.0,), big_t, 2), -1.0))
    res = exp_series(f, 0.0, big_t, h, 1, rel_tol=1e-11)
    got = evaluate(res.terms[1], h)
    want = -big_t ** (2 * h + 1) / (2 * h + 1)
    assert got == pytest.approx(want, rel=1e-8)
    assert res.diagnostics[1]["route"] == "quadrature"


def test_derivative_levels_shapes():
    f = make_exp(scale(fbm_sample(1.0), 0.5))
    levels = derivative_levels(f, 3)
    assert len(levels) == 4
    assert levels[0] == f
    assert free_vars(levels[2]) == {"_v1", "_u1", "_v2", "_u2"}
    assert second_derivative(levels[1], 2) == levels[2]


def test_symbolic_terms_evaluate_like_pathwise_run():
    f = make_product([make_power(fbm_sample(0.5), 2), fbm_sample(1.0)])
    path = _random_path((0.0, 0.25, 0.5, 1.0))
    sym = exp_series(f, 0.25, 1.0, 0.7, 2)
    num = exp_series(f, 0.25, 1.0, 0.7, 2, path=path)
    for s, n in zip(sym.terms, num.terms):
        assert evaluate(s, 0.7, path) == pytest.approx(n, abs=1e-13)


def test_stochastic_simplex_integrand_requires_single_path():
    # at r > 0 the frozen tail integrals keep unobserved v-dependence tied to
    # the path, which the simplex quadrature only supports path by path
    f = make_exp(scale(time_int_b((0.0,), 1.0, 2), -1.0))
    with pytest.raises(EngineError):
        exp_series(f, 0.5, 1.0, 0.7, 1)
    vec = _random_path((0.0, 0.5, 1.0), n_paths=8)
    with pytest.raises(EngineError):
        exp_series(f, 0.5, 1.0, 0.7, 1, path=vec)


def test_path_quadrature_between_grid_times():
    # the level-1 integrand of IB2(0,1)*B(1) at r > 0 holds int_u^1 B ds at
    # quadrature nodes u off the path grid; on a 4x finer grid carrying the
    # same piecewise-linear path, the level must not change
    coarse = TimeGrid((0.0, 0.3, 1.0))
    path = _random_path(coarse.times, seed=8)
    fine_times = coarse.refine(4).times
    fine = GridPath(fine_times, np.interp(fine_times, coarse.times, path.values))
    f = make_product([time_int_b((0.0,), 1.0, 2), fbm_sample(1.0)])
    got = exp_series(f, 0.3, 1.0, 0.7, 2, path=path)
    want = exp_series(f, 0.3, 1.0, 0.7, 2, path=fine)
    assert "quadrature" in got.diagnostics[1]["route"]
    assert abs(got.terms[1]) > 1e-3
    assert got.terms[1] == pytest.approx(want.terms[1], rel=1e-9)


def test_validation_rejects_bad_inputs():
    f = fbm_sample(1.0)
    with pytest.raises(ValueError):
        exp_series(f, -0.1, 1.0, 0.7, 2)
    with pytest.raises(ValueError):
        exp_series(f, 0.5, 0.4, 0.7, 2)
    with pytest.raises(ValueError):
        exp_series(f, 0.0, 0.5, 0.7, 2)  # samples beyond the horizon
    with pytest.raises(ValueError):
        exp_series(f, 0.0, 1.0, 0.7, -1)
    with pytest.raises(ValueError):
        exp_series(indicator("x", 0.0, 1.0), 0.0, 1.0, 0.7, 1)


def test_assumption_bound_certifies_exponential():
    # F = exp(-sigma int_0^T B ds): |D^m F| <= (sigma T)^m F pointwise, so
    # T^m bounds the frozen sup at r=0
    big_t, h, sigma = 1.0, 0.75, 1.0
    seq = assumption_b_sequence(0.0, big_t, 12, h, lambda m: (sigma * big_t) ** m)
    assert all(b < a for a, b in zip(seq[1:], seq[2:]))
    assert seq[12] < 1e-9 * seq[0]


def test_diagnostics_report_routes_and_term_counts():
    f = make_exp(scale(fbm_sample(1.0), 0.5))
    res = exp_series(f, 0.0, 1.0, 0.75, 4)
    assert [d["order"] for d in res.diagnostics] == [0, 1, 2, 3, 4]
    assert res.diagnostics[0]["route"] == "evaluate"
    assert res.diagnostics[1]["route"] == "exact"
    assert all(d["n_terms"] == 1 for d in res.diagnostics)


@pytest.mark.parametrize("r", [0.0, 0.25, 0.6])
def test_order_zero_is_frozen_functional(r):
    # the zeroth partial sum must coincide with evaluating the frozen
    # functional directly, for any functional and conditioning time
    times = (0.0, 0.25, 0.6, 0.8, 1.0)
    path = _random_path(times, n_paths=16, seed=21)
    f = make_sum([
        make_product([make_power(fbm_sample(0.25), 2), fbm_sample(1.0)]),
        scale(time_int_b((0.0,), 1.0), 2.0),
        make_exp(scale(fbm_sample(0.8), 0.3)),
    ])
    res = exp_series(f, r, 1.0, 0.7, order=0, path=path)
    direct = evaluate(freeze(f, r), 0.7, path)
    np.testing.assert_allclose(res.partial_sums[0], direct, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("r,i", [(0.0, 2), (0.0, 3), (0.3, 2), (0.3, 3)])
def test_factorized_levels_match_tensor_quadrature(r, i):
    # level i of exp(sigma B_T) factorizes into i copies of one u-averaged
    # cluster, which the engine integrates in closed form; rebuild the same
    # level as an explicit i-dimensional quadrature over the ordered region
    # r <= v_1 <= ... <= v_i <= T, mapped onto the unit cube
    sigma, big_t, h = 0.9, 1.0, 0.75
    f = make_exp(scale(fbm_sample(big_t), sigma))
    # pinned-zero path makes the frozen prefactor exp(sigma B_r) equal one
    path = GridPath((0.0, 0.3, big_t), np.zeros(3))
    res = exp_series(f, r, big_t, h, order=i, path=path)
    assert res.diagnostics[i]["route"] == "factorized"
    level = float(res.terms[i])

    p = 2.0 * h - 1.0

    def g(v):
        # (1/2)(int_0^T + int_0^r) sigma^2 phi_H(u, v) du for v >= r
        total = h * (v ** p + (big_t - v) ** p)
        if r > 0.0:
            total += h * (v ** p - (v - r) ** p)
        return 0.5 * sigma * sigma * total

    # per-axis Gauss panels graded toward both ends, where g has the
    # derivative singularities of (v - r)^(2H-1) and (T - v)^(2H-1)
    lo_half = graded_points(0.0, 0.5, 5, ratio=0.2)
    cuts = lo_half + [1.0 - c for c in reversed(lo_half[:-1])]
    xg, wg = gauss_nodes(16)
    xs = np.concatenate([0.5 * (a + b) + 0.5 * (b - a) * xg
                         for a, b in zip(cuts, cuts[1:])])
    ws = np.concatenate([0.5 * (b - a) * wg for a, b in zip(cuts, cuts[1:])])

    # v_k = r + (T - r) x_i x_{i-1} ... x_k sorts the coordinates; the
    # jacobian is (T - r)^i x_i^(i-1) ... x_2
    s = big_t - r
    if i == 2:
        x2, x1 = xs[:, None], xs[None, :]
        vals = g(r + s * x2 * x1) * g(r + s * x2) * s ** 2 * x2
        direct = float(np.einsum("a,b,ab->", ws, ws, vals))
    else:
        x3, x2, x1 = xs[:, None, None], xs[None, :, None], xs[None, None, :]
        vals = (g(r + s * x3 * x2 * x1) * g(r + s * x3 * x2) * g(r + s * x3)
                * s ** 3 * x3 ** 2 * x2)
        direct = float(np.einsum("a,b,c,abc->", ws, ws, ws, vals))
    assert level == pytest.approx(direct, rel=1e-8)


def _unit_rule(n_graded=5, ratio=0.2, n=16):
    """Gauss nodes and weights on [0, 1], panels graded toward both ends."""
    lo_half = graded_points(0.0, 0.5, n_graded, ratio=ratio)
    cuts = lo_half + [1.0 - c for c in reversed(lo_half[:-1])]
    xg, wg = gauss_nodes(n)
    xs = np.concatenate([0.5 * (a + b) + 0.5 * (b - a) * xg
                         for a, b in zip(cuts, cuts[1:])])
    ws = np.concatenate([0.5 * (b - a) * wg for a, b in zip(cuts, cuts[1:])])
    return xs, ws


def test_separable_four_sample_product_matches_grid_expansion():
    # every level-2 cluster of B(.25)B(.5)B(.75)B(1) is piecewise polynomial
    # but no two levels share one; the grid expansion is exact at order 4
    h, r = 0.7, 0.25
    grid = TimeGrid((0.0, 0.25, 0.5, 0.75, 1.0))
    f = make_product([fbm_sample(t) for t in grid.times[1:]])
    path = _random_path(grid.times, n_paths=16)
    res = exp_series(f, r, 1.0, h, 2, path=path)
    assert res.diagnostics[2]["route"] == "separable"
    assert res.diagnostics[2]["error"] <= 1e-9
    assert abs(res.terms[2]) > 1e-2
    want = backward_taylor(f, r, grid, 4, h, path=path).partial_sums[-1]
    np.testing.assert_allclose(res.partial_sums[-1], want, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("r", [0.0, 0.25, 0.5])
def test_separable_levels_match_tensor_quadrature(r):
    # on the pinned-zero path level 2 of exp(sigma B_T) B_c is
    # sigma^3 (d(v_1) a(v_2) + a(v_1) d(v_2)) over r <= v_1 <= v_2 <= T: a is
    # the u-averaged kernel mass, b its part on u <= c, d = b + 1_{v <= c} a.
    # The engine integrates both terms on its graded grid; rebuild the level
    # from tensor Gauss rules on the pieces of the ordered region cut at c
    sigma, c, big_t, h = 0.5, 0.5, 1.0, 0.7
    f = make_product([make_exp(scale(fbm_sample(big_t), sigma)), fbm_sample(c)])
    path = GridPath((0.0, 0.25, 0.5, big_t), np.zeros(4))
    res = exp_series(f, r, big_t, h, order=2, path=path)
    assert "separable" in res.diagnostics[2]["route"]
    level = float(res.terms[2])

    p = 2.0 * h - 1.0

    def avg(hi, v):
        # (1/2)(int_0^hi + int_0^min(hi, r)) phi_H(u, v) du
        def mass(b):
            return h * (v ** p + np.sign(b - v) * np.abs(b - v) ** p)

        return 0.5 * (mass(hi) + mass(min(hi, r)))

    def integrand(v1, v2):
        def d(v):
            return avg(c, v) + np.where(v <= c, avg(big_t, v), 0.0)

        return sigma ** 3 * (d(v1) * avg(big_t, v2) + avg(big_t, v1) * d(v2))

    xs, ws = _unit_rule(n_graded=8)
    pts = sorted({r, c, big_t})
    direct = 0.0
    for j, (lo, hi) in enumerate(zip(pts, pts[1:])):
        s = hi - lo
        # the simplex lo <= v_1 <= v_2 <= hi: v_2 = lo + s x_2, v_1 = lo + s x_2 x_1
        x2, x1 = xs[:, None], xs[None, :]
        vals = integrand(lo + s * x2 * x1, lo + s * x2) * s ** 2 * x2
        direct += float(np.einsum("a,b,ab->", ws, ws, vals))
        # the rectangles with v_2 in a later piece
        for lo2, hi2 in zip(pts[j + 1:], pts[j + 2:]):
            vals = integrand((lo + s * xs)[None, :], (lo2 + (hi2 - lo2) * xs)[:, None])
            direct += float(np.einsum("a,b,ab->", ws, ws, vals)) * s * (hi2 - lo2)
    assert level == pytest.approx(direct, rel=1e-8)


@pytest.mark.parametrize("text,order,want", [
    # E[B_c^2 e^Y] = (Var B_c + Cov(B_c, Y)^2) e^(Var Y / 2) with Y = int_0^1 B,
    # Var Y = 1/(2H+2), Cov(B_c, Y) = (c^2H + (1 - c^(2H+1) - (1-c)^(2H+1))/(2H+1)) / 2,
    # which at c = 1/2 is (c^2H + (1 - c^2H)/(2H+1)) / 2
    ("B(.5)^2*exp(IB(0,1))", 8,
     lambda h: (0.5 ** (2 * h) + (0.5 ** (2 * h) + (1 - 0.5 ** (2 * h)) / (2 * h + 1)) ** 2 / 4)
     * math.exp(1 / (4 * h + 4))),
    # E[e^(Y/5) B_1] = Cov(B_1, Y) / 5 e^(Var Y / 50), Cov(B_1, Y) = 1/2
    ("exp(0.2*IB(0,1))*B(1)", 6, lambda h: 0.1 * math.exp(0.04 / (4 * h + 4))),
])
def test_separable_levels_reach_the_expectation(text, order, want):
    # at r = 0 the series sums to E[F], which Monte Carlo must see within
    # 4 standard errors; the Gaussian closed form checks it to 1e-9
    h = 0.7
    f = parse(text)
    res = exp_series(f, 0.0, 1.0, h, order)
    assert all("separable" in d["route"] for d in res.diagnostics[2:])
    got = float(evaluate(res.value, h))
    assert got == pytest.approx(want(h), rel=1e-9)
    est = mc_expect(f, h, McConfig(n_paths=60_000, seed=13, grid_refinement=64))
    assert abs(est.estimate - got) < 4.0 * est.stderr


def test_separable_route_raises_above_its_tolerance():
    # the route compares its grid with the bisected one and reports the gap;
    # a tolerance below that gap is an error, not a silent best effort
    f = parse("exp(0.5*B(1))*B(0.5)")
    res = exp_series(f, 0.0, 1.0, 0.7, 3)
    errors = [d["error"] for d in res.diagnostics[2:]]
    assert all(0.0 < e <= 1e-9 for e in errors)
    with pytest.raises(EngineError, match="separable"):
        exp_series(f, 0.0, 1.0, 0.7, 2, rel_tol=min(errors) / 10.0)


@pytest.mark.parametrize("big_t", [0.01, 1.0, 2.0])
@pytest.mark.parametrize("h", [0.51, 0.55, 0.65, 0.75, 0.85, 0.95, 0.97, 0.99])
def test_fourth_order_quadrature_matches_each_closed_form(h, big_t):
    # each ordered integral on its own, so that errors cannot cancel in the sum
    closed = cir_fourth_order_integral(big_t, h, method="closed")
    quad = cir_fourth_order_integral(big_t, h, method="quadrature")
    c2 = abs(sum(closed))
    for got, want in zip(quad, closed):
        assert abs(got - want) <= 1e-7 * c2


@pytest.mark.parametrize("h", [0.55, 0.75, 0.95])
def test_fourth_order_quadrature_raises_above_its_tolerance(h):
    # the gap to the bisected grid bounds the error of the returned sums
    closed = np.array(cir_fourth_order_integral(1.0, h, method="closed"))
    quad = np.array(cir_fourth_order_integral(1.0, h, method="quadrature"))
    actual = np.sum(np.abs(quad - closed)) / np.sum(np.abs(closed))
    with pytest.raises(QuadratureError) as err:
        cir_fourth_order_integral(1.0, h, method="quadrature", rel_tol=1e-15)
    assert err.value.achieved >= actual
    assert err.value.achieved <= 1e-7


def test_fourth_order_quadrature_gap_is_conservative_near_half():
    # at H = 0.505 the grid misses 1e-7: the gap to the bisected grid
    # (about 1.7e-7) says so, and it bounds the actual error (about 1.1e-9)
    closed = np.array(cir_fourth_order_integral(1.0, 0.505, method="closed"))
    with pytest.raises(QuadratureError) as err:
        cir_fourth_order_integral(1.0, 0.505, method="quadrature")
    fine = expformula._cir_ordered_integrals(1.0, 0.505, True)
    actual = np.sum(np.abs(fine - closed)) / np.sum(np.abs(closed))
    assert 1e-7 < err.value.achieved
    assert actual <= err.value.achieved


def test_fourth_order_quadrature_runs_no_adaptive_bisection(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("adaptive quadrature called")

    monkeypatch.setattr(quadrature, "adaptive_panels", refuse)
    monkeypatch.setattr(quadrature, "fixed_panel", refuse)
    quad = cir_fourth_order_integral(1.0, 0.7, method="quadrature")
    closed = cir_fourth_order_integral(1.0, 0.7, method="closed")
    assert sum(quad) == pytest.approx(sum(closed), rel=1e-8)


_LEVEL1_HS = [0.51, 0.55, 0.6, 0.7, 0.95]


@pytest.mark.parametrize("text,sign", [("IB2(0,1)", 1.0), ("exp(-IB2(0,1))", -1.0)])
@pytest.mark.parametrize("h", _LEVEL1_HS)
def test_level_one_quadrature_reaches_its_closed_form(text, sign, h):
    # the ramp (1 - max(u, v)) mixes u_1 with v_1, so level 1 takes the
    # quadrature route, on the level's graded grid and its bisection
    res = exp_series(parse(text), 0.0, 1.0, h, 1)
    assert res.diagnostics[1]["route"] == "quadrature"
    got = float(evaluate(res.terms[1], h))
    assert got == pytest.approx(sign / (2.0 * h + 1.0), rel=1e-11, abs=0.0)
    assert 0.0 <= res.diagnostics[1]["error"] <= 1e-9


@pytest.mark.parametrize("r", [0.3, 0.5])
@pytest.mark.parametrize("h", _LEVEL1_HS)
def test_level_one_quadrature_after_the_start(r, h):
    # int_r^1 (s^2H - r^2H) ds: how far E B_s^2 grows past the frozen B_r^2
    res = exp_series(parse("IB2(0,1)"), r, 1.0, h, 1)
    q = 2.0 * h + 1.0
    want = (1.0 - r ** q) / q - r ** (2.0 * h) * (1.0 - r)
    assert float(evaluate(res.terms[1], h)) == pytest.approx(want, rel=1e-11, abs=0.0)


@pytest.mark.parametrize("text", ["IB2(0,1)", "exp(-IB2(0,1))"])
@pytest.mark.parametrize("h", _LEVEL1_HS[:-1])
def test_level_one_quadrature_raises_above_its_tolerance(text, h):
    # at H = 0.95 the two grids agree to the last bit, so no tolerance can
    # be missed there
    with pytest.raises(EngineError, match="level-1 quadrature"):
        exp_series(parse(text), 0.0, 1.0, h, 1, rel_tol=1e-15)


def test_level_one_quadrature_evaluates_once_per_grid(monkeypatch):
    # one array evaluate on each of the two grids, instead of one scalar
    # evaluate per node of an adaptive bisection
    calls = []
    for module in (expformula, functional):
        real = module.evaluate
        monkeypatch.setattr(module, "evaluate",
                            lambda *a, real=real, **k: calls.append(1) or real(*a, **k))
    res = exp_series(parse("IB2(0,1)"), 0.0, 1.0, 0.7, 1)
    assert res.diagnostics[1]["route"] == "quadrature"
    assert 1 <= len(calls) <= 4


@pytest.mark.parametrize("big_t", [1.0, 0.5])
@pytest.mark.parametrize("h", [0.51, 0.6, 0.7, 0.8, 0.95])
def test_symmetrized_level_two_is_the_cir_coefficient(h, big_t):
    # at r = 0 level 2 of exp(-int_0^T B^2) is E[(int_0^T B^2)^2] / 2, the
    # T^(4H+2) coefficient of the small-T expansion; two of its three terms
    # tie the levels together, so it takes the symmetrized route
    res = exp_series(parse(f"exp(-IB2(0,{big_t}))"), 0.0, big_t, h, 2)
    assert res.diagnostics[2]["route"] == "symmetrized"
    assert 0.0 < res.diagnostics[2]["error"] <= 1e-9
    want = cir_small_t(big_t, h).c2 * big_t ** (4.0 * h + 2.0)
    assert float(evaluate(res.terms[2], h)) == pytest.approx(want, rel=1e-10, abs=0.0)


def test_square_integral_squared_terminates_at_twice_c2():
    # E[(int_0^1 B^2)^2] = 2 c2, and D^6 of a quartic vanishes
    h = 0.7
    res = exp_series(parse("IB2(0,1)^2"), 0.0, 1.0, h, 3)
    assert res.diagnostics[3]["route"] == "vanishes"
    got = float(evaluate(res.value, h))
    assert got == pytest.approx(2.0 * cir_small_t(1.0, h).c2, rel=1e-10, abs=0.0)


def _double_integral(g, points):
    """iint g(s, t) ds dt over [points[0], points[-1]]^2 for a g that bends
    at the points and on the diagonal: graded Gauss rules on the cells
    between the points, with the inner range of a diagonal cell split at s."""
    xs, ws = _unit_rule(n_graded=8)
    total = 0.0
    for a, b in zip(points, points[1:]):
        s, sw = (a + (b - a) * xs)[:, None], (b - a) * ws
        for c, d in zip(points, points[1:]):
            pieces = [(c, d)] if c != a else [(a, s), (s, b)]
            for lo, hi in pieces:
                t, tw = lo + (hi - lo) * xs, (hi - lo) * ws
                total += np.sum(sw * np.sum(tw * g(s, t), axis=-1))
    return total


def _isserlis_cases():
    # (functional, its level-2 Gaussian moment given C and h): (int_0^1 B^2)^2
    # has only coupled ramps; int_a^b B^2 B_c^2 adds indicator weights
    def square(cov, h, r):
        q = 2.0 * h + 1.0
        trace = (1.0 - r ** q) / q - r ** (2.0 * h) * (1.0 - r)
        return 2.0 * _double_integral(lambda s, t: cov(s, t) ** 2, sorted({0.0, r, 1.0})) \
            + trace ** 2

    def times_sample(cov, h, r):
        # int_.2^.9 (C(s,s) C(c,c) + 2 C(s,c)^2) ds at c = .6
        xs, ws = _unit_rule(n_graded=8)
        pts = sorted({0.2, 0.6, 0.9} | ({r} if 0.2 < r < 0.9 else set()))
        return sum(np.sum((b - a) * ws * (cov(s, s) * cov(0.6, 0.6) + 2.0 * cov(s, 0.6) ** 2))
                   for a, b in zip(pts, pts[1:]) for s in [a + (b - a) * xs])

    return [("IB2(0,1)^2", square), ("IB2(0.2,0.9)*B(0.6)^2", times_sample)]


@pytest.mark.parametrize("text,moment", _isserlis_cases(), ids=["square", "times_sample"])
@pytest.mark.parametrize("r", [0.0, 0.3, 0.7])
@pytest.mark.parametrize("h", [0.55, 0.7, 0.9])
def test_symmetrized_level_two_is_the_isserlis_moment(text, moment, r, h):
    # the level-2 terms of a quartic in B are deterministic; they sum to the
    # Gaussian fourth moment of the part of the path not frozen at r, whose
    # covariance is C(s, t) = R(s, t) - R(s ^ r, t ^ r).  Level 1 reads the
    # path at r > 0, so level 2 is taken on its own
    p = 2.0 * h

    def cov_r(s, t):
        return 0.5 * (s ** p + t ** p - np.abs(s - t) ** p)

    def cov(s, t):
        return cov_r(s, t) - cov_r(np.minimum(s, r), np.minimum(t, r))

    d2 = derivative_levels(parse(text), 2)[2]
    prods = list(sum_terms(collect_terms(make_sum(expand(freeze(d2, r))))))
    splits = expformula._check_level(prods, 2, r, 1.0)
    pairs, route, error, _ = expformula._level_value(prods, splits, 2, r, 1.0, h, None,
                                                     1e-9, {}, [])
    assert route == "symmetrized" and error <= 1e-9
    val = collect_terms(make_sum([scale(s, v) for s, v in pairs]))
    want = moment(cov, h, r)
    assert float(evaluate(val, h)) == pytest.approx(want, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("h", [0.55, 0.7, 0.9])
def test_symmetrized_level_three_is_the_sixth_moment(h):
    # at r = 0 the series of int_0^1 B^2 B_c^4 stops at level 3, whose 15
    # terms hold one ramp each: E[X^2 Y^4] = 3 a c^2 + 12 b^2 c for X = B_s,
    # Y = B_c, a = Var X, b = Cov(X, Y), c = Var Y, integrated over s
    p, c = 2.0 * h, 0.5

    def cov(s, t):
        return 0.5 * (s ** p + t ** p - np.abs(s - t) ** p)

    xs, ws = _unit_rule(n_graded=8)
    want = sum(np.sum((b - a) * ws * (3.0 * cov(s, s) * cov(c, c) ** 2
                                      + 12.0 * cov(s, c) ** 2 * cov(c, c)))
               for a, b in ((0.0, c), (c, 1.0)) for s in [a + (b - a) * xs])
    res = exp_series(parse(f"IB2(0,1)*B({c})^4"), 0.0, 1.0, h, 4)
    assert [d["route"] for d in res.diagnostics[1:]] == [
        "vanishes", "vanishes", "symmetrized", "vanishes"]
    assert float(evaluate(res.value, h)) == pytest.approx(want, rel=1e-10, abs=0.0)


def test_symmetrized_route_runs_path_by_path_on_an_ensemble():
    # at r = 0.3 the level-2 terms of exp(-int_.3^1 B^2) mix single-variable
    # and coupled ramps under the random prefactor exp(-0.7 B(.3)^2); the
    # route's integrals do not read the path, so an ensemble takes it at once
    times = (0.0, 0.15, 0.3, 0.65, 1.0)
    ens = _random_path(times, n_paths=8, seed=17)
    f = parse("exp(-IB2(0.3,1))")
    res = exp_series(f, 0.3, 1.0, 0.7, 2, path=ens)
    assert "symmetrized" in res.diagnostics[2]["route"]
    assert abs(res.terms[2]).min() > 1e-3
    for k in range(8):
        one = exp_series(f, 0.3, 1.0, 0.7, 2, path=GridPath(times, ens.values[k]))
        for many, single in zip(res.terms, one.terms):
            assert many[k] == pytest.approx(single, rel=1e-14, abs=0.0)


def test_symmetrized_route_raises_above_its_tolerance():
    # the route's grid gap is the level's error; no grid reaches 1e-16 (at
    # r = 0 level 1 of this quartic vanishes, so level 2 is the first to try)
    f = parse("IB2(0,1)^2")
    gap = exp_series(f, 0.0, 1.0, 0.7, 2).diagnostics[2]["error"]
    with pytest.raises(EngineError, match="symmetrized") as err:
        exp_series(f, 0.0, 1.0, 0.7, 2, rel_tol=1e-16)
    assert f"{gap:.3e}" in str(err.value)


@pytest.mark.parametrize("text,order,r,match", [
    # three ramps tie the levels together at level 3: an s-integral of
    # dimension 3
    ("exp(-IB2(0,1))", 3, 0.0, "dimension 3"),
    # at r > 0 a coupled level-2 term holds a time integral of the path
    ("IB2(0,1)^2*B(0.5)", 2, 0.3, "reads the path"),
])
def test_terms_outside_every_route_fail_before_any_integral(monkeypatch, text, order,
                                                             r, match):
    def refuse(*args, **kwargs):
        raise AssertionError("a level was integrated")

    monkeypatch.setattr(expformula, "_level_value", refuse)
    with pytest.raises(EngineError, match=match):
        exp_series(parse(text), r, 1.0, 0.7, order)


def test_symmetrized_route_needs_a_symmetric_term_set():
    # relabeling the levels maps (u1 v2)(u2)(v1) to (u2 v1)(u1)(v2), which
    # is not in the set: the simplex-to-cube identity does not hold for it
    from fbmseries.functional import ramp_max

    term = make_product([ramp_max(1.0, (0.0, "_u1", "_v2")), ramp_max(1.0, (0.0, "_u2")),
                         ramp_max(1.0, (0.0, "_v1"))])
    with pytest.raises(EngineError, match="not symmetric"):
        expformula._check_level([term], 2, 0.0, 1.0)
    twin = make_product([ramp_max(1.0, (0.0, "_u2", "_v1")), ramp_max(1.0, (0.0, "_u1")),
                         ramp_max(1.0, (0.0, "_v2"))])
    expformula._check_level([term, twin], 2, 0.0, 1.0)


def test_box_plan_is_built_once_per_symmetrized_term(monkeypatch):
    # level 2 of the quartic has three symmetrized terms; the plan made when
    # the level is checked is the one its integral uses
    builds = []
    real = expformula._box_plan
    monkeypatch.setattr(expformula, "_box_plan",
                        lambda *a: builds.append(1) or real(*a))
    res = exp_series(parse("IB2(0,1)^2"), 0.0, 1.0, 0.7, 2)
    assert res.diagnostics[2]["route"] == "symmetrized"
    assert res.diagnostics[2]["n_terms"] == len(builds) == 3


@pytest.mark.parametrize("text,order", [("IB2(0,1)^2", 1), ("exp(-IB2(0,1))", 2),
                                        ("exp(-IB2(0,1))", 3)])
def test_levels_vanish_at_the_horizon(text, order):
    # at r = T the v-range [r, T] is empty: every level >= 1 is exactly 0,
    # on the grid routes too, and level 0 is F on the path
    f = parse(text)
    path = _random_path([0.0, 0.25, 0.5, 0.75, 1.0])
    res = exp_series(f, 1.0, 1.0, 0.7, order, path=path)
    assert res.terms[0] == evaluate(f, 0.7, path)
    assert all(t == 0.0 for t in res.terms[1:])
    assert res.diagnostics[1]["route"] == "quadrature"
    assert all(d["error"] == 0.0 for d in res.diagnostics[1:])
    ens = _random_path([0.0, 0.5, 1.0], n_paths=3)
    res = exp_series(f, 1.0, 1.0, 0.7, order, path=ens)
    assert np.array_equal(res.terms[0], evaluate(f, 0.7, ens))
    assert all(np.array_equal(t, np.zeros(3)) for t in res.terms[1:])
    # without a path the levels are symbolic zeros
    res = exp_series(f, 1.0, 1.0, 0.7, order)
    assert all(t == ZERO for t in res.terms[1:])


_FINE_TIMES = sorted({i / 64 for i in range(65)} | {0.3, 0.5, 0.7})


@pytest.mark.parametrize("text,r,order,path", [
    *[(text, 0.0, 1, None) for text in ("IB2(0,1)", "exp(-IB2(0,1))")],
    *[("IB2(0,1)", r, 1, _random_path(_FINE_TIMES)) for r in (0.3, 0.5, 0.7)],
    ("exp(0.5*B(1))*B(0.5)", 0.25, 3, _random_path([0.0, 0.25, 0.5, 1.0])),
])
@pytest.mark.parametrize("h", [0.6, 0.7, 0.8])
def test_one_evaluation_on_both_grids_has_the_bits_of_two(monkeypatch, text, r, order,
                                                          path, h):
    # the level-1 quadrature integrand and the separable cluster moments are
    # evaluated once on the nodes of the grid and its refinement together
    seen = []
    real = expformula._LevelGrid._on_both

    def on_both(level, fn):
        out = real(level, fn)
        seen.extend(np.array_equal(got, fn(grid.nodes))
                    for grid, got in zip(level.grids, out))
        return out

    monkeypatch.setattr(expformula._LevelGrid, "_on_both", on_both)
    exp_series(parse(text), r, 1.0, h, order, path=path)
    assert seen and all(seen)


@pytest.mark.parametrize("text,order", [("IB2(0,1)*B(1)", 2), ("exp(-IB2(0,1))", 1),
                                        ("exp(0.5*IB(0,1))*B(1)", 4)])
def test_prefactors_take_one_evaluate_per_call(monkeypatch, text, order):
    # the frozen functional and every prefactor of every level share one
    # schedule; only a level-1 quadrature integrand takes an evaluate of its own
    evaluates, integrals = [], []
    real_evaluate, real_integral = expformula.evaluate, expformula._LevelGrid.integral
    monkeypatch.setattr(expformula, "evaluate",
                        lambda *a, **k: evaluates.append(1) or real_evaluate(*a, **k))
    monkeypatch.setattr(expformula._LevelGrid, "integral",
                        lambda *a, **k: integrals.append(1) or real_integral(*a, **k))
    path = _random_path(sorted({i / 16 for i in range(17)} | {0.3}))
    exp_series(parse(text), 0.3, 1.0, 0.7, order, path=path)
    assert len(evaluates) == 1 + len(integrals)


def test_prefactor_errors_surface_before_a_later_integral_fails():
    # on an ensemble the level-1 quadrature route raises EngineError, but the
    # path misses r, so the frozen functional of level 0 fails to evaluate
    # first, as it did when each level was evaluated in turn
    ens = _random_path([0.0, 0.5, 1.0], n_paths=3)
    with pytest.raises(OffGridTimeError):
        exp_series(parse("IB2(0,1)*B(1)"), 0.3, 1.0, 0.7, 2, path=ens)
    ens = _random_path([0.0, 0.3, 0.5, 1.0], n_paths=3)
    with pytest.raises(EngineError, match="single paths only"):
        exp_series(parse("IB2(0,1)*B(1)"), 0.3, 1.0, 0.7, 2, path=ens)


def test_cluster_moments_come_from_the_call_memo():
    # every level of the integrated exponential is a power of one cluster,
    # computed at level 1; the memo does not outlive the call
    for _ in range(2):
        diags = exp_series(_integrated_exponential(1.0, 1.0), 0.0, 1.0, 0.75, 6).diagnostics
        assert [d["memo_hits"] for d in diags] == [0, 0, 1, 1, 1, 1, 1]
        assert all(d["n_terms"] == 1 for d in diags)


def test_level_one_term_without_an_exact_moment_is_refused_before_integration(
        monkeypatch):
    # D_u D_v exp(-int_0^1 B^3) holds int_{max(0, u)}^1 B^2, whose kernel
    # moment in u_1 has no exact path form: EngineError from the level check,
    # before any level-1 integral runs
    integrals, real = [], expformula._LevelGrid.integral
    monkeypatch.setattr(expformula._LevelGrid, "integral",
                        lambda *a, **k: integrals.append(1) or real(*a, **k))
    f = make_exp(scale(time_int_b((0.0,), 1.0, 3), -1.0))
    path = _random_path(sorted({i / 16 for i in range(17)} | {0.3}))
    with pytest.raises(EngineError, match="no exact kernel moment in '_u1'.*IB2"):
        exp_series(f, 0.3, 1.0, 0.7, 1, path=path)
    assert integrals == []
