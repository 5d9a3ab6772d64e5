"""Exactness and validation tests for the closed-form kernel integrals."""

import math

import numpy as np
import pytest

from fbmseries.kernel import (
    DiagonalSingularityError,
    Interval,
    PiecewisePoly,
    abs_pow,
    int_pow_phi,
    phi,
    phi_antiderivative,
    phi_family,
    phi_poly_moment,
    poly_rect_integral,
    rect_integral,
)

from oracles import quad_phi_moment, quad_phi_moment_alg, quad_rect


def rel_err(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


class TestValidation:
    def test_hurst_range(self):
        for bad in (0.5, 1.0, 0.3, 1.2, -0.7):
            with pytest.raises(ValueError):
                phi(0.2, 0.7, bad)

    def test_interval(self):
        with pytest.raises(ValueError):
            Interval(1.0, 0.5)
        with pytest.raises(ValueError):
            Interval(-0.1, 0.5)
        with pytest.raises(ValueError):
            Interval(0.0, math.inf)

    def test_phi_diagonal_raises(self):
        with pytest.raises(DiagonalSingularityError):
            phi(0.3, 0.3, 0.75)
        with pytest.raises(DiagonalSingularityError):
            phi(np.array([0.1, 0.5]), np.array([0.2, 0.5]), 0.75)


class TestAbsPow:
    def test_zero_convention(self):
        assert abs_pow(0.0, 1.4) == 0.0
        arr = abs_pow(np.array([0.0, 2.0]), 0.5)
        assert arr[0] == 0.0
        assert arr[1] == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_matches_power(self):
        for x in (0.3, -1.7, 2.0):
            assert abs_pow(x, 1.3) == pytest.approx(abs(x) ** 1.3, rel=1e-15)


class TestPhiFamily:
    @pytest.mark.parametrize("h", [0.55, 0.7, 0.9])
    def test_first_members(self, h):
        x = 0.8
        assert phi_family(1, x, h) == pytest.approx(h * x ** (2 * h - 1), rel=1e-14)
        assert phi_family(2, x, h) == pytest.approx(x ** (2 * h) / 2, rel=1e-14)

    def test_derivative_chain(self):
        # finite differences: Phi_m' == Phi_{m-1} away from zero
        h, x, eps = 0.7, 0.6, 1e-6
        for m in range(2, 6):
            fd = (phi_family(m, x + eps, h) - phi_family(m, x - eps, h)) / (2 * eps)
            assert fd == pytest.approx(phi_family(m - 1, x, h), rel=1e-8)

    def test_odd_even_symmetry(self):
        h = 0.65
        assert phi_family(1, -0.4, h) == pytest.approx(-phi_family(1, 0.4, h))
        assert phi_family(2, -0.4, h) == pytest.approx(phi_family(2, 0.4, h))


class TestIntPowPhi:
    @pytest.mark.parametrize("n,m,alpha,beta", [
        (0, 0, -0.3, 0.9), (1, 0, -0.5, 0.5), (3, 1, 0.1, 1.2),
        (2, 0, -1.0, -0.2), (4, 2, -0.7, 0.4),
    ])
    def test_against_quadrature(self, n, m, alpha, beta):
        from scipy import integrate
        h = 0.72

        def f(y):
            base = phi(y, 0.0, h) if m == 0 else phi_family(m, y, h)
            return y ** n * base

        pts = [0.0] if alpha < 0.0 < beta and m == 0 else None
        num, _ = integrate.quad(f, alpha, beta, points=pts, limit=400,
                                epsabs=1e-14, epsrel=1e-13)
        assert int_pow_phi(n, m, alpha, beta, h) == pytest.approx(num, rel=1e-10, abs=1e-12)


class TestClosedForms:
    def test_antiderivative_crossing(self):
        h = 0.7
        got = phi_antiderivative(0.2, 1.3, 0.9, h)
        want = quad_phi_moment(lambda u: 1.0, 0.2, 1.3, 0.9, h)
        assert rel_err(got, want) < 1e-11

    def test_rect_diagonal_crossing(self):
        h = 0.7
        got = rect_integral(Interval(0.0, 1.0), Interval(0.5, 1.5), h)
        want = quad_rect(lambda u: 1.0, 0.0, 1.0, lambda v: 1.0, 0.5, 1.5, h,
                         v_breaks=(1.0,))
        assert rel_err(got, want) < 1e-11

    def test_rect_additivity(self):
        # splitting the u-range must be additive
        h = 0.8
        whole = rect_integral(Interval(0.0, 1.0), Interval(0.2, 0.7), h)
        parts = rect_integral(Interval(0.0, 0.4), Interval(0.2, 0.7), h) \
            + rect_integral(Interval(0.4, 1.0), Interval(0.2, 0.7), h)
        assert whole == pytest.approx(parts, rel=1e-13)

    @pytest.mark.parametrize("h", [0.6, 0.75, 0.9])
    def test_linear_weight_identity(self, h):
        # iint (T-u)(T-v) phi_H du dv over [0,T]^2 == T^(2H+2)/(2H+2)
        T = 1.3
        w = PiecewisePoly.from_poly((T, -1.0), 0.0, T)
        got = poly_rect_integral(w, w, h)
        assert got == pytest.approx(T ** (2 * h + 2) / (2 * h + 2), rel=1e-13)

    def test_indicator_inner_product_is_covariance(self):
        h = 0.65
        for s in np.linspace(0.1, 1.0, 10):
            for t in np.linspace(0.1, 1.0, 10):
                ip = poly_rect_integral(PiecewisePoly.indicator(0.0, s),
                                        PiecewisePoly.indicator(0.0, t), h)
                cov = 0.5 * (s ** (2 * h) + t ** (2 * h) - abs(t - s) ** (2 * h))
                assert abs(ip - cov) < 1e-14

    def test_poly_moment_randomized(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            h = rng.uniform(0.55, 0.95)
            a, b = np.sort(rng.uniform(0.0, 2.0, size=2))
            if b - a < 1e-3:
                continue
            v = rng.uniform(0.0, 2.0)
            if min(abs(v - a), abs(v - b)) < 1e-3:
                continue
            deg = rng.integers(0, 4)
            coeffs = rng.uniform(-2.0, 2.0, size=deg + 1)
            w = PiecewisePoly.from_poly(coeffs, a, b)
            got = phi_poly_moment(w, Interval(0.0, 2.0), v, h)
            want = quad_phi_moment_alg(w, a, b, v, h)
            assert rel_err(got, want) < 1e-9

    def test_poly_rect_randomized(self):
        rng = np.random.default_rng(7)
        done = 0
        while done < 4:
            h = rng.uniform(0.55, 0.95)
            a, b = np.sort(rng.uniform(0.0, 1.5, size=2))
            c, d = np.sort(rng.uniform(0.0, 1.5, size=2))
            if b - a < 0.05 or d - c < 0.05:
                continue
            wu = PiecewisePoly.from_poly(rng.uniform(-1, 1, size=3), a, b)
            wv = PiecewisePoly.from_poly(rng.uniform(-1, 1, size=2), c, d)
            got = poly_rect_integral(wu, wv, h)
            want = quad_rect(wu, a, b, wv, c, d, h, v_breaks=(a, b))
            assert rel_err(got, want) < 1e-9
            done += 1

    def test_poly_moment_vectorized_over_partners(self):
        # an array of partners gives, element by element, the scalar moment;
        # the partners straddle both ends of the support and sit inside it
        rng = np.random.default_rng(11)
        for h in (0.55, 0.7, 0.9):
            w = PiecewisePoly((0.2, 0.6, 1.3), ((1.0, -0.5), (0.3, 0.2, 0.7)))
            vs = np.concatenate([rng.uniform(0.0, 2.0, size=20), [0.2, 0.6, 1.3]])
            got = phi_poly_moment(w, Interval(0.0, 1.5), vs, h)
            assert got.shape == vs.shape
            for v, g in zip(vs, got):
                assert rel_err(g, phi_poly_moment(w, Interval(0.0, 1.5), float(v), h)) < 1e-13
                want = sum(quad_phi_moment_alg(lambda u, c=c: np.polynomial.polynomial.polyval(u, c),
                                               a, b, v, h) for a, b, c in w.pieces())
                assert rel_err(g, want) < 1e-9

    def test_rect_integral_up_to_an_array_of_caps(self):
        # capping the v-range at each of several ends is the rect integral of
        # the clipped v-polynomial; a cap below the support gives zero
        h = 0.7
        wu = PiecewisePoly.from_poly((0.5, 1.0), 0.0, 1.0)
        wv = PiecewisePoly((0.25, 0.5, 1.0), ((1.0,), (2.0, -1.0)))
        caps = np.array([0.1, 0.25, 0.3, 0.5, 0.8, 1.0, 1.2])
        got = poly_rect_integral(wu, wv, h, caps)
        for cap, g in zip(caps, got):
            clipped = wv.restrict(0.0, cap)
            want = 0.0 if clipped is None else poly_rect_integral(wu, clipped, h)
            assert g == pytest.approx(want, rel=1e-12, abs=1e-15)

    def test_moment_clipping(self):
        # the interval argument clips the weight's support
        h = 0.7
        w = PiecewisePoly.from_poly((1.0, 1.0), 0.0, 2.0)
        full = phi_poly_moment(w, Interval(0.0, 2.0), 0.5, h)
        clipped = phi_poly_moment(w, Interval(0.0, 1.0), 0.5, h)
        rest = phi_poly_moment(w, Interval(1.0, 2.0), 0.5, h)
        assert full == pytest.approx(clipped + rest, rel=1e-12)


class TestPiecewisePoly:
    def test_eval_outside_support_is_zero(self):
        w = PiecewisePoly.indicator(0.2, 0.8)
        assert w(0.1) == 0.0 and w(0.9) == 0.0 and w(0.5) == 1.0

    def test_mul_merges_breakpoints(self):
        a = PiecewisePoly.indicator(0.0, 1.0)
        b = PiecewisePoly.from_poly((0.0, 1.0), 0.5, 2.0)
        p = a.mul(b)
        assert p.breaks[0] == 0.5 and p.breaks[-1] == 1.0
        assert p(0.7) == pytest.approx(0.7)

    def test_mul_disjoint_is_none(self):
        assert PiecewisePoly.indicator(0.0, 0.4).mul(
            PiecewisePoly.indicator(0.6, 1.0)) is None

    def test_restrict(self):
        w = PiecewisePoly((0.0, 0.5, 1.0), ((1.0,), (2.0,)))
        r = w.restrict(0.25, 0.75)
        assert r(0.3) == 1.0 and r(0.6) == 2.0 and r(0.9) == 0.0
        assert w.restrict(2.0, 3.0) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            PiecewisePoly((0.0, 0.0), ((1.0,),))
        with pytest.raises(ValueError):
            PiecewisePoly((0.0, 1.0), ())
