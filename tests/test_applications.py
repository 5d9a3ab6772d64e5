"""Case-study checks: bond price, squared-path exponential, lognormal series."""

import cmath
import math

import numpy as np
import pytest

from fbmseries.applications import (CirMcCheck, cir_mc_check, cir_small_t,
                                    lognormal_cf_series, lognormal_moment,
                                    merton_bond_price)
from fbmseries.expformula import exp_series
from fbmseries.fbm import McConfig, mc_expect
from fbmseries.functional import evaluate, fbm_sample, make_exp, scale
from fbmseries.parser import parse


class TestMertonBondPrice:
    def test_partial_sums_match_engine_route(self):
        for big_t, h in [(1.0, 0.6), (1.0, 0.75), (1.5, 0.9)]:
            res = merton_bond_price(big_t, h, order=12)
            assert len(res.partial_sums) == len(res.engine_sums) == 13
            for a, b in zip(res.partial_sums, res.engine_sums):
                assert abs(a - b) <= 1e-12 * res.closed_form

    def test_terms_are_powers_of_kernel_mass(self):
        # T = 1, H = 0.75: gamma = 1/(4H + 4) = 1/7
        res = merton_bond_price(1.0, 0.75, order=3)
        assert res.partial_sums[0] == 1.0
        assert res.partial_sums[1] - res.partial_sums[0] == pytest.approx(1.0 / 7.0, rel=1e-15)
        assert res.partial_sums[2] - res.partial_sums[1] == pytest.approx((1.0 / 7.0) ** 2 / 2.0, rel=1e-14)

    def test_high_order_reaches_closed_form(self):
        res = merton_bond_price(1.0, 0.75, order=30)
        assert res.closed_form == pytest.approx(math.exp(1.0 / 7.0), rel=1e-15)
        assert res.rel_gaps[-1] <= 1e-12
        assert res.rel_gaps[0] > res.rel_gaps[-1]

    def test_validation(self):
        with pytest.raises(ValueError):
            merton_bond_price(0.0, 0.75)
        with pytest.raises(ValueError):
            merton_bond_price(1.0, 0.75, order=-1)


class TestCirExpansion:
    def test_coefficient_routes_agree(self):
        for h in (0.55, 0.65, 0.75, 0.85, 0.95):
            ce = cir_small_t(0.3, h)
            assert ce.c0 == 1.0
            assert ce.c1 == pytest.approx(-1.0 / (2.0 * h + 1.0), rel=1e-15)
            assert ce.c2_integral == pytest.approx(ce.c2, rel=1e-12)

    def test_known_first_order_coefficient(self):
        assert cir_small_t(1.0, 0.75).c1 == pytest.approx(-0.4, abs=1e-15)

    def test_expansion_decreases_with_horizon(self):
        a = cir_small_t(0.2, 0.7).approx
        b = cir_small_t(0.4, 0.7).approx
        assert 0.0 < b < a < 1.0

    def test_zero_horizon(self):
        ce = cir_small_t(0.0, 0.7)
        assert ce.approx == 1.0

    def test_negative_horizon_rejected(self):
        with pytest.raises(ValueError):
            cir_small_t(-1.0, 0.7)


class TestCirMcCheck:
    def test_monte_carlo_sits_inside_band(self):
        cfg = McConfig(n_paths=4000, seed=7, grid_refinement=16)
        chk = cir_mc_check(0.3, 0.7, cfg)
        assert isinstance(chk, CirMcCheck)
        assert chk.n_paths == 4000
        assert chk.band == pytest.approx(3.0 * chk.stderr)
        assert abs(chk.mc - chk.series) <= max(chk.band, chk.truncation_budget)

    def test_grid_refinement_gap_below_noise(self):
        chk = cir_mc_check(0.3, 0.7, McConfig(n_paths=4000, seed=7, grid_refinement=16))
        assert chk.refinement_gap < chk.stderr

    def test_budget_shrinks_with_horizon(self):
        cfg = McConfig(n_paths=100, seed=0, grid_refinement=4)
        small = cir_mc_check(0.1, 0.7, cfg).truncation_budget
        large = cir_mc_check(0.3, 0.7, cfg).truncation_budget
        assert 0.0 < small < large

    def test_zero_horizon_is_exact(self):
        chk = cir_mc_check(0.0, 0.7, McConfig(n_paths=10, seed=0))
        assert (chk.mc, chk.series, chk.stderr) == (1.0, 1.0, 0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            cir_mc_check(0.3, 0.7, McConfig(n_paths=10, seed=0, grid_refinement=0))


class TestLognormalMoment:
    def test_matches_gaussian_closed_form(self):
        for p in (1, 2, 3, 4):
            for sigma in (0.3, 0.5):
                got = lognormal_moment(p, 1.0, 0.75, sigma, n_max=60)
                want = math.exp(p * p * sigma * sigma / 2.0)
                assert got == pytest.approx(want, rel=1e-12)

    def test_horizon_enters_through_variance(self):
        got = lognormal_moment(2, 0.5, 0.8, 0.4, n_max=60)
        want = math.exp(4.0 * 0.5 ** 1.6 * 0.16 / 2.0)
        assert got == pytest.approx(want, rel=1e-12)

    def test_matches_monte_carlo(self):
        p, sigma = 2, 0.3
        f = make_exp(scale(fbm_sample(1.0), p * sigma))
        est = mc_expect(f, 0.75, McConfig(n_paths=40_000, seed=5))
        got = lognormal_moment(p, 1.0, 0.75, sigma)
        assert abs(got - est.estimate) <= 4.0 * est.stderr

    def test_zeroth_moment_is_one(self):
        assert lognormal_moment(0, 1.0, 0.75, 0.5) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            lognormal_moment(-1, 1.0, 0.75, 0.5)
        with pytest.raises(ValueError):
            lognormal_moment(2, 0.0, 0.75, 0.5)
        with pytest.raises(ValueError):
            lognormal_moment(2, 1.0, 0.75, 0.5, n_max=-1)


class TestLognormalCharacteristicFunction:
    def test_zero_argument_gives_unit_mass(self):
        assert lognormal_cf_series(0.0, 1.0, 0.75, 1.0, 0.0, 10).value == 1.0 + 0j

    def test_leading_term_is_point_mass_value(self):
        # n_max = 0 keeps only G(e^mu) = exp(iz e^mu)
        got = lognormal_cf_series(0.7, 1.0, 0.75, 1.0, mu=0.2, n_max=0).value
        assert got == pytest.approx(cmath.exp(1j * 0.7 * math.exp(0.2)))

    def test_partial_sums_accumulate_terms(self):
        ser = lognormal_cf_series(0.5, 1.0, 0.75, 0.8, 0.0, 12)
        acc = 0j
        for term, ps in zip(ser.terms, ser.partial_sums):
            acc += term
            assert ps == acc
        assert ser.value == ser.partial_sums[-1]

    @pytest.mark.parametrize("z, s, h", [(0.7, 0.5, 0.75), (0.3, 1.0, 0.6),
                                         (1.5, 0.25, 0.9)])
    def test_engine_levels_are_the_series_terms(self, z, s, h):
        # the paper's third example, E[exp(-z exp(s B_1))] at r = 0: level n
        # of the exponential formula is term n of the expansion at iz
        res = exp_series(parse(f"exp(-{z}*exp({s}*B(1)))"), 0.0, 1.0, h, 5)
        want = lognormal_cf_series(1j * z, 1.0, h, s, 0.0, 5).terms
        assert len(res.terms) == len(want) == 6
        for term, w in zip(res.terms, want):
            assert evaluate(term) == pytest.approx(w.real, rel=1e-12, abs=0.0)

    def test_terms_eventually_grow(self):
        ser = lognormal_cf_series(1.0, 1.0, 0.75, 1.0, 0.0, 30)
        mags = [abs(t) for t in ser.terms]
        assert max(mags) > abs(mags[1])
        assert mags.index(max(mags)) > 10

    def test_validation(self):
        with pytest.raises(ValueError):
            lognormal_cf_series(1.0, 0.0, 0.75, 1.0)
        with pytest.raises(ValueError):
            lognormal_cf_series(1.0, 1.0, 0.75, 1.0, 0.0, -1)
