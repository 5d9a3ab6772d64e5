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
    pieces_phi_moment,
    poly_rect_integral,
    rect_integral,
)

from oracles import (quad_phi_moment, quad_phi_moment_alg, quad_rect,
                     reference_phi_poly_moment, reference_pieces_phi_moment,
                     reference_poly_rect_integral)


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


def _exp_arguments(call):
    """The argument of every math.exp and np.exp that call() makes."""
    seen = []
    m_exp, np_exp = math.exp, np.exp
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(math, "exp", lambda x: seen.append(float(x)) or m_exp(x))
        mp.setattr(np, "exp", lambda x: seen.append(np.asarray(x).tobytes()) or np_exp(x))
        call()
    return seen


class TestEndpointTables:
    """The moments take each Phi_m at an endpoint once per call, by the same
    float operations as the term-by-term reference, so every bit is kept."""

    H = (0.55, 0.7, 0.9)
    # pieces of degree 0 to 3; the partners below sit on its breaks too
    W = PiecewisePoly((0.2, 0.45, 0.6, 0.9, 1.3),
                      ((1.5,), (1.0, -0.5), (0.3, 0.2, 0.7), (-0.4, 1.1, 0.0, 0.6)))

    @pytest.mark.parametrize("h", H)
    def test_phi_poly_moment_keeps_every_bit(self, h):
        vs = np.array([0.0, 0.2, 0.45, 0.6, 0.9, 1.1, 1.3, 1.7])
        for iv in (Interval(0.0, 1.5), Interval(0.4, 1.0)):
            assert np.array_equal(phi_poly_moment(self.W, iv, vs, h),
                                  reference_phi_poly_moment(self.W, iv, vs, h))
            for v in vs:
                assert phi_poly_moment(self.W, iv, float(v), h) \
                    == reference_phi_poly_moment(self.W, iv, float(v), h)

    @pytest.mark.parametrize("h", H)
    def test_pieces_phi_moment_keeps_every_bit(self, h):
        # a batch of three, with limits, coefficients and partners as arrays;
        # the partner 0.35 of the last element sits on a limit
        ws = [[(np.array([0.1, 0.2, 0.15]), np.array([0.6, 0.9, 0.7]),
                (np.array([1.0, 2.0, 0.5]), 0.3, -0.2, np.array([0.1, 0.0, 0.4])))],
              [(0.35, np.array([1.1, 1.2, 1.05]), (0.5, -0.2)),
               (0.0, 0.35, (2.0,))]]
        vs = np.array([0.45, 0.8, 0.35])
        got = pieces_phi_moment(ws, 0.05, 1.25, vs, h)
        assert np.array_equal(got, reference_pieces_phi_moment(ws, 0.05, 1.25, vs, h))
        for k, v in enumerate(vs):
            one = [[(a if np.ndim(a) == 0 else a[k], b if np.ndim(b) == 0 else b[k],
                     tuple(c if np.ndim(c) == 0 else c[k] for c in cs))
                    for a, b, cs in w] for w in ws]
            for lo, hi in ((0.05, 1.25), (0.35, 0.9)):
                assert pieces_phi_moment(one, lo, hi, float(v), h) \
                    == reference_pieces_phi_moment(one, lo, hi, float(v), h)

    @staticmethod
    def chain(floor):
        """A path-like form: a constant piece below floor, then twelve cubic
        pieces on [max(t_m, floor), t_{m+1}] that share their limits."""
        ts = np.linspace(0.0, 1.0, 13)
        return [[(0.0, floor, (0.7,))]
                + [(np.maximum(ts[m], floor), ts[m + 1], (0.3 + 0.1 * m, -0.2, 0.05 * m, 0.4))
                   for m in range(12)]]

    @pytest.mark.parametrize("h", H)
    def test_a_chain_of_pieces_keeps_every_bit(self, h):
        # over [0, 0.3] the pieces above 0.3 leave cells of zero length, and
        # the batch of floors empties some pieces in some elements only
        vs = np.array([0.05, 0.3, 0.45, 0.8, 1.0])
        for floor in (0.0, 0.35, np.array([0.0, 0.2, 0.25, 0.6, 0.9])):
            for hi in (1.0, 0.3):
                ws = self.chain(floor)
                assert np.array_equal(pieces_phi_moment(ws, 0.0, hi, vs, h),
                                      reference_pieces_phi_moment(ws, 0.0, hi, vs, h))
                if np.ndim(floor) == 0:
                    for v in (0.25, 0.5):
                        assert pieces_phi_moment(ws, 0.0, hi, v, h) \
                            == reference_pieces_phi_moment(ws, 0.0, hi, v, h)

    @pytest.mark.parametrize("h", H)
    def test_poly_rect_integral_keeps_every_bit(self, h):
        # wv starts at wu's break 0.6, so e - c is 0 there
        wv = PiecewisePoly((0.6, 1.0, 1.4), ((0.7, 0.0, -1.2), (0.2, 0.5, 0.1, -0.3)))
        caps = np.array([0.1, 0.6, 0.75, 1.0, 1.2, 1.5])
        for wu, wvv in ((self.W, wv), (wv, self.W), (self.W, self.W)):
            assert poly_rect_integral(wu, wvv, h) == reference_poly_rect_integral(wu, wvv, h)
            assert np.array_equal(poly_rect_integral(wu, wvv, h, caps),
                                  reference_poly_rect_integral(wu, wvv, h, caps))

    def test_each_phi_is_taken_once_per_call(self):
        # each exp is one |y|^(2H-2+m) of one (endpoint, m); none may repeat
        # within a call, and a second identical call does the same work
        h = 0.7
        wu = PiecewisePoly.from_poly((0.3, -1.0, 0.5, 2.0), 0.1, 0.7)
        wv = PiecewisePoly.from_poly((1.0, 0.4, -0.8), 0.25, 1.3)
        ws = [[(np.array([0.1, 0.2, 0.15]), np.array([0.6, 0.9, 0.7]),
                (np.array([1.0, 2.0, 0.5]), 0.3, -0.2, 0.1))],
              [(0.35, np.array([1.1, 1.2, 1.05]), (0.5, -0.2))]]
        calls = {
            "poly_rect_integral": lambda: poly_rect_integral(wu, wv, h),
            "poly_rect_integral capped": lambda: poly_rect_integral(
                wu, wv, h, np.array([0.4, 0.9, 1.1])),
            "pieces_phi_moment": lambda: pieces_phi_moment(
                ws, 0.05, 1.25, np.array([0.45, 0.8, 1.0]), h),
            "pieces_phi_moment scalar": lambda: pieces_phi_moment(
                [[(0.1, 0.6, (1.0, 0.3, -0.2, 0.1))], [(0.35, 1.1, (0.5, -0.2))]],
                0.05, 1.25, 0.45, h),
            # neighbouring pieces share a limit, and the limits above 0.3
            # all clip to 0.3, so the sorted cut rows repeat
            "pieces_phi_moment repeated cuts": lambda: pieces_phi_moment(
                self.chain(0.0), 0.0, 0.3, np.array([0.1, 0.5, 0.9]), h),
        }
        for name, call in calls.items():
            first = _exp_arguments(call)
            assert first and len(first) == len(set(first)), name
            assert len(_exp_arguments(call)) == len(first), name


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
