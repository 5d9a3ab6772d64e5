"""Simulator law checks: covariance fit, determinism, estimate consistency."""

import math

import numpy as np
import pytest

from fbmseries.fbm import (
    McConfig,
    covariance,
    grid_for,
    mc_expect,
    simulate,
)
from fbmseries.functional import TimeGrid, evaluate, times
from fbmseries.parser import parse


class TestCovariance:
    def test_closed_form_values(self):
        h = 0.75
        assert covariance(1.0, 1.0, h) == pytest.approx(1.0)
        assert covariance(0.0, 1.0, h) == 0.0
        s, t = 0.3, 0.9
        want = 0.5 * (s ** 1.5 + t ** 1.5 - (t - s) ** 1.5)
        assert covariance(s, t, h) == pytest.approx(want, rel=1e-14)

    def test_symmetry(self):
        assert covariance(0.2, 0.7, 0.6) == pytest.approx(covariance(0.7, 0.2, 0.6))


class TestSimulate:
    def test_seed_determinism(self):
        g = TimeGrid((0.0, 0.25, 0.5, 1.0))
        a = simulate(g, 0.7, McConfig(n_paths=50, seed=123))
        b = simulate(g, 0.7, McConfig(n_paths=50, seed=123))
        c = simulate(g, 0.7, McConfig(n_paths=50, seed=124))
        np.testing.assert_array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    @pytest.mark.parametrize("times", [
        tuple(k / 512 for k in range(513)),
        tuple(sorted({k / 64 for k in range(65)} | {0.3})),
        (0.0, 0.1, 0.45, 0.5, 1.0),
        tuple([0.0] + sorted(np.random.default_rng(2).uniform(0.0, 3.0, 200))),
    ], ids=["512", "64+r", "5", "random200"])
    def test_paths_equal_the_entrywise_covariance_bit_for_bit(self, times):
        g = TimeGrid(times)
        ts = g.times[1:]
        cov = np.array([[covariance(s, t, 0.7) for t in ts] for s in ts])
        z = np.random.Generator(np.random.Philox(key=3)).standard_normal((4, len(ts)))
        e = simulate(g, 0.7, McConfig(n_paths=4, seed=3))
        assert np.array_equal(e.values[:, 1:], z @ np.linalg.cholesky(cov).T)

    def test_starts_at_zero(self):
        g = TimeGrid((0.0, 0.5, 1.0))
        e = simulate(g, 0.8, McConfig(n_paths=10, seed=0))
        assert np.all(e.values[:, 0] == 0.0)

    @pytest.mark.parametrize("h", [0.6, 0.85])
    def test_sample_covariance_matches_law(self, h):
        # pairwise sample covariances within 4 s.e. of the closed form,
        # with the Gaussian (Isserlis) variance of the product estimator
        g = TimeGrid((0.0, 0.2, 0.45, 0.7, 1.0, 1.3))
        n = 40_000
        e = simulate(g, h, McConfig(n_paths=n, seed=7))
        for i, s in enumerate(g.times[1:], start=1):
            for j, t in enumerate(g.times[1:], start=1):
                emp = float(np.mean(e.values[:, i] * e.values[:, j]))
                want = covariance(s, t, h)
                var_prod = covariance(s, s, h) * covariance(t, t, h) + want ** 2
                se = math.sqrt(var_prod / n)
                assert abs(emp - want) < 4.0 * se


class TestMcExpect:
    def test_geometric_moment(self):
        # E[exp(sigma B_T)] = exp(sigma^2 T^2H / 2)
        h, sigma = 0.75, 0.5
        est = mc_expect(parse("exp(0.5*B(1))"), h, McConfig(n_paths=60_000, seed=11))
        want = math.exp(sigma ** 2 / 2.0)
        assert abs(est.estimate - want) < 4.0 * est.stderr
        assert est.stderr < 0.01

    def test_integrated_path_exponential(self):
        # Var(int_0^T B ds) = T^(2H+2)/(2H+2), so E[exp(int B)] = exp(Var/2)
        h, t_final = 0.75, 1.0
        est = mc_expect(parse("exp(IB(0,1))"), h,
                        McConfig(n_paths=60_000, seed=13, grid_refinement=64))
        want = math.exp(t_final ** (2 * h + 2) / (2 * (2 * h + 2)))
        assert abs(est.estimate - want) < 4.0 * est.stderr

    def test_odd_functional_centered(self):
        est = mc_expect(parse("B(0.5)^2*B(1)"), 0.8, McConfig(n_paths=50_000, seed=17))
        assert abs(est.estimate) < 4.0 * est.stderr

    def test_unbound_variable_rejected(self):
        from fbmseries.functional import TimeIntB
        with pytest.raises(ValueError):
            mc_expect(TimeIntB((0.0, "u"), 1.0), 0.7, McConfig(n_paths=10, seed=0))

    def test_moments_are_exactly_rounded_sums(self):
        e = simulate(TimeGrid((0.0, 0.5, 1.0)), 0.7, McConfig(n_paths=3000, seed=8))
        est = mc_expect(parse("exp(B(1))*B(0.5)"), 0.7, McConfig(n_paths=3000), ensemble=e)
        x = [float(v) for v in np.exp(e.values[:, 2]) * e.values[:, 1]]
        mean = math.fsum(x) / len(x)
        var = math.fsum((v - mean) ** 2 for v in x) / (len(x) - 1)
        assert est.estimate == mean
        assert est.stderr == math.sqrt(var / len(x))

    def test_reuses_ensemble(self):
        g = TimeGrid((0.0, 0.5, 1.0))
        e = simulate(g, 0.7, McConfig(n_paths=1000, seed=5))
        est1 = mc_expect(parse("B(1)^2"), 0.7, McConfig(n_paths=1000, seed=5), ensemble=e)
        est2 = mc_expect(parse("B(1)^2"), 0.7, McConfig(n_paths=1000, seed=5), ensemble=e)
        assert est1.estimate == est2.estimate


class TestGridFor:
    def test_needed_times(self):
        e = parse("B(0.5)*IB(0.25,1)+WI(s;0.1,0.9)")
        assert times(e) == {0.5, 0.25, 1.0, 0.1, 0.9}

    def test_functional_times_stay_on_the_grid(self):
        # 0.1 + (0.45 - 0.1) is not 0.45 in floating point
        est = mc_expect(parse("B(0.1)*B(0.45)"), 0.7, McConfig(n_paths=500))
        assert {0.1, 0.45} <= set(est.grid.times)
        assert abs(est.estimate - covariance(0.1, 0.45, 0.7)) < 4.0 * est.stderr

    def test_refinement(self):
        g = grid_for(parse("IB2(0,0.3)"), refinement=3)
        assert g.times == (0.0, 0.1, 0.2, 0.30000000000000004) or len(g.times) == 4

    def test_config_validation(self):
        with pytest.raises(ValueError):
            McConfig(n_paths=0)
        with pytest.raises(ValueError):
            McConfig(n_paths=10, grid_refinement=0)

    def test_single_path_cannot_estimate_error(self):
        # one path is fine for pathwise evaluation, not for a stderr
        with pytest.raises(ValueError):
            mc_expect(parse("B(1)"), 0.75, McConfig(n_paths=1, seed=0))
