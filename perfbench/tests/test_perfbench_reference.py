"""The benchmark's references, checked against each other and known limits."""

import math

import numpy as np
import pytest

import reference as ref
from reference import GaussFunctional, Integral, Point

H = 0.7
TIMES = tuple(i / 16 for i in range(17))


def _paths(n=5, seed=0, times=TIMES, h=H):
    ts = np.asarray(times[1:])
    cov = np.array([[ref.fbm_cov(s, t, h) for t in ts] for s in ts])
    z = np.random.default_rng(seed).standard_normal((n, ts.size))
    return np.hstack([np.zeros((n, 1)), z @ np.linalg.cholesky(cov).T])


def _simpson(f, a, b, n=2000):
    x = np.linspace(a, b, 2 * n + 1)
    y = np.array([f(v) for v in x])
    return (b - a) / (6 * n) * (y[0] + y[-1] + 4 * y[1:-1:2].sum() + 2 * y[2:-1:2].sum())


FUNCTIONALS = [
    GaussFunctional([Point(1.0)], {(0,): 1.0}, [0.5]),
    GaussFunctional([Point(.25), Point(.5), Point(.75), Point(1.0)], {(1, 1, 1, 1): 1.0}),
    GaussFunctional([Point(.5), Point(1.0)], {(2, 1): 1.0, (0, 1): -2.0}),
    GaussFunctional([Point(.75), Point(1.0)], {(1, 0): 1.0}, [0.0, 0.3]),
    GaussFunctional([Point(.5), Integral(1.0)], {(2, 0): 1.0}, [0.0, 1.0]),
]


@pytest.mark.parametrize("fn", FUNCTIONALS, ids=lambda f: f.text())
def test_at_r_equal_t_the_conditional_is_f_itself(fn):
    values = _paths()
    got = fn.conditional(1.0, H, TIMES, values)
    m = [x.frozen(1.0, TIMES, values) for x in fn.coords]
    want = sum(c * np.prod([x ** k for x, k in zip(m, e)], axis=0)
               for e, c in fn.poly.items()) * np.exp(sum(a * x for a, x in zip(fn.expo, m)))
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-14)


def _isserlis(idx, mean, cov):
    """E[prod Y_i] by the literal pairing recursion, Y ~ N(mean, cov)."""
    if not idx:
        return 1.0
    first, rest = idx[0], idx[1:]
    out = mean[first] * _isserlis(rest, mean, cov)
    for j in range(len(rest)):
        out = out + cov[first][rest[j]] * _isserlis(rest[:j] + rest[j + 1:], mean, cov)
    return out


@pytest.mark.parametrize("r", [0.0, 0.25, 0.5, 0.75])
def test_polynomials_match_isserlis_pairing(r):
    pts = [Point(.25), Point(.5), Point(1.0)]
    fn = GaussFunctional(pts, {(1, 2, 1): 1.0, (0, 2, 2): 0.5})
    values = _paths()
    mean = [p.frozen(r, TIMES, values) for p in pts]
    cov = [[ref.cond_cov(p, q, r, H) for q in pts] for p in pts]
    want = _isserlis([0, 1, 1, 2], mean, cov) + 0.5 * _isserlis([1, 1, 2, 2], mean, cov)
    np.testing.assert_allclose(fn.conditional(r, H, TIMES, values), want, rtol=1e-13)


def test_conditional_exponential_is_lognormal_closed_form():
    fn = GaussFunctional([Point(1.0)], {(0,): 1.0}, [0.5])
    got = fn.conditional(0.0, H, TIMES, _paths())
    np.testing.assert_allclose(got, ref.lognormal(0.5, 1.0, H), rtol=1e-14)


def test_integral_covariances_match_quadrature():
    r = 0.3
    b, ib = Point(0.6), Integral(1.0)
    want = _simpson(lambda u: ref.cond_cov(b, Point(u), r, H), 0.0, 1.0)
    assert ref.cond_cov(b, ib, r, H) == pytest.approx(want, rel=1e-6)
    inner = lambda v: _simpson(lambda u: ref.cond_cov(Point(u), Point(v), r, H),
                               0.0, 1.0, n=200)
    assert ref.cond_cov(ib, ib, r, H) == pytest.approx(_simpson(inner, 0.0, 1.0, n=100),
                                                       rel=1e-5)
    assert ref.cond_cov(ib, ib, 0.0, H) == pytest.approx(1.0 / (2 * H + 2), rel=1e-14)


@pytest.mark.parametrize("r", [0.0, 0.25, 0.625])
def test_level_sums_converge_to_the_conditional(r):
    fn = GaussFunctional([Point(.5), Integral(1.0)], {(2, 0): 1.0, (0, 0): 0.5}, [0.2, 0.7])
    values = _paths()
    sums = fn.level_sums(r, H, TIMES, values, 25)
    np.testing.assert_allclose(sums[-1], fn.conditional(r, H, TIMES, values), rtol=1e-12)


def test_level_sums_of_a_polynomial_stop_at_half_its_degree():
    fn = GaussFunctional([Point(.25), Point(.5), Point(.75), Point(1.0)], {(1, 1, 1, 1): 1.0})
    sums = fn.level_sums(0.25, H, TIMES, _paths(), 4)
    np.testing.assert_array_equal(sums[2], sums[4])


def test_merton_and_ib2_closed_forms():
    assert ref.merton(1.0, H) == pytest.approx(
        math.exp(ref.cond_cov(Integral(1.0), Integral(1.0), 0.0, H) / 2), rel=1e-14)
    values = _paths()
    assert ref.ib2_conditional(0.0, 1.0, H, TIMES, values) == pytest.approx(
        [1.0 / (2 * H + 1)] * 5, rel=1e-14)
    at_t = ref.ib2_conditional(1.0, 1.0, H, TIMES, values)
    np.testing.assert_allclose(at_t, np.trapezoid(values ** 2, TIMES, axis=-1), rtol=1e-14)


def test_cir_coefficients_reduce_to_brownian_expansion():
    # E exp(-int_0^T W^2) = cosh(sqrt2 T)^(-1/2) = 1 - T^2/2 + 7 T^4/24 + ...
    c1, c2 = ref.cir_coefficients(0.5)
    assert c1 == pytest.approx(-0.5, rel=1e-14)
    assert c2 == pytest.approx(7.0 / 24.0, rel=1e-13)


def test_texts_parse_to_the_same_functional():
    from fbmseries.functional import GridPath, evaluate
    from fbmseries.parser import parse

    values = _paths(n=3)
    for fn in FUNCTIONALS:
        got = evaluate(parse(fn.text()), H, GridPath(TIMES, values))
        np.testing.assert_allclose(got, fn.conditional(1.0, H, TIMES, values), rtol=1e-13)


def test_level_terms_of_an_exponential_are_the_exponential_series():
    fn = GaussFunctional([Point(1.0)], {(0,): 1.0}, [2.0])
    got = fn.level_terms(0.0, 0.75, TIMES, _paths(), 12)
    want = ref.exp_terms(2.0, 12)          # sigma^2 T^2H / 2 = 2
    for g, w in zip(got, want):
        np.testing.assert_allclose(g, w, rtol=1e-14)
    assert math.fsum(ref.exp_terms(2.0, 30)) == pytest.approx(
        ref.lognormal(2.0, 1.0, 0.75), rel=1e-14)
