"""Simulator law checks: covariance fit, determinism, estimate consistency."""

import math
import threading
import tracemalloc

import numpy as np
import pytest

from fbmseries import functional
from fbmseries.applications import cir_mc_check
from fbmseries.fbm import (
    _PATH_BLOCK,
    McConfig,
    covariance,
    grid_for,
    mc_expect,
    simulate,
)
from fbmseries.functional import TimeGrid, evaluate, make_exp, scale, time_int_b, times
from fbmseries.parser import parse

from oracles import one_shot_ensemble

B = _PATH_BLOCK


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


class TestPathBlocks:
    """Blocks of paths give the bits of the one-shot draw and evaluation."""

    GRID = TimeGrid((0.0, 0.3, 0.6, 1.0))

    @pytest.fixture
    def one_block(self, monkeypatch):
        # evaluation of every ensemble below in one block
        monkeypatch.setattr(functional, "_PATH_BLOCK", 10 * B)

    @pytest.mark.parametrize("n", [1, 2, B - 1, B, B + 1, 2 * B + 1])
    def test_simulate_is_the_one_shot_draw(self, n):
        cfg = McConfig(n_paths=n, seed=31)
        got = simulate(self.GRID, 0.7, cfg).values
        want = one_shot_ensemble(self.GRID, 0.7, cfg).values
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_mc_expect_is_the_one_shot_estimate(self, one_block):
        f = parse("exp(0.5*B(1))*B(0.3)+IB2(0,0.6)")
        cfg = McConfig(n_paths=2 * B + 1, seed=32)
        ens = one_shot_ensemble(self.GRID, 0.7, cfg)
        x = np.asarray(evaluate(f, 0.7, ens.as_grid_path())).tolist()
        mean = math.fsum(x) / len(x)
        var = math.fsum((v - mean) ** 2 for v in x) / (len(x) - 1)
        est = mc_expect(f, 0.7, cfg, grid=self.GRID)
        assert (est.estimate, est.stderr, est.n_paths) == (mean, math.sqrt(var / len(x)),
                                                          len(x))

    def test_cir_mc_check_is_the_one_shot_check(self, one_block):
        big_t, cfg = 0.3, McConfig(n_paths=2 * B + 1, seed=33, grid_refinement=2)
        ens = one_shot_ensemble(TimeGrid((0.0, big_t)).refine(4), 0.7, cfg)
        f = make_exp(scale(time_int_b((0.0,), big_t, 2), -1.0))
        fine = evaluate(f, 0.7, ens.as_grid_path())
        coarse = evaluate(f, 0.7, functional.GridPath(ens.grid.times[::2],
                                                      ens.values[:, ::2]))
        got = cir_mc_check(big_t, 0.7, cfg)
        assert got.mc == float(np.mean(fine))
        assert got.stderr == float(np.std(fine, ddof=1) / math.sqrt(fine.size))
        assert got.refinement_gap == abs(got.mc - float(np.mean(coarse)))
        assert got.n_paths == fine.size

    def test_evaluate_in_blocks_is_one_run(self, monkeypatch):
        grid = TimeGrid(tuple(k / 8 for k in range(9)))
        path = simulate(grid, 0.7, McConfig(n_paths=B + 1, seed=34)).as_grid_path()
        roots = [parse("exp(-IB2(0,1))*B(0.5)"), parse("WI(s;0.125,0.875)^2"),
                 parse("3"), parse("IB(0.25,1)")]
        blocked = [evaluate(roots, 0.7, path), evaluate(roots[0], 0.7, path)]
        monkeypatch.setattr(functional, "_PATH_BLOCK", 10 * B)
        whole = [evaluate(roots, 0.7, path), evaluate(roots[0], 0.7, path)]
        for got, want in zip(blocked[0] + blocked[1:], whole[0] + whole[1:]):
            assert type(got) is type(want) and np.shape(got) == np.shape(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        assert np.ndim(blocked[0][2]) == 0

    def test_cir_mc_check_memory_does_not_grow_with_the_grid(self):
        # 4B more paths may add a few per-path vectors at 8 bytes a path;
        # holding the ensemble would add 3 x 33 grid columns of them
        def peak(n):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                cir_mc_check(0.3, 0.7, McConfig(n_paths=n, grid_refinement=16))
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        cir_mc_check(0.3, 0.7, McConfig(n_paths=2, grid_refinement=16))
        assert peak(8 * B) - peak(4 * B) <= 4 * (4 * B * 8)


class _Interrupt(BaseException):
    """Stands for a signal handler's exception, such as a case time-out."""


class TestDrawWorker:
    """The worker that draws the next block's normals is joined on every
    exit and hands its exceptions to the caller."""

    GRID = TimeGrid((0.0, 0.5, 1.0))

    @pytest.mark.parametrize("exc", [RuntimeError, _Interrupt])
    def test_exception_in_each_joins_the_worker(self, exc):
        seen, before = [], threading.active_count()

        def each(ens):
            seen.append(ens.n_paths)
            if len(seen) == 2:
                raise exc("block 2")
            return ens.values[:, -1]

        with pytest.raises(exc, match="block 2"):
            simulate(self.GRID, 0.7, McConfig(n_paths=3 * B, seed=35), each=each)
        assert seen == [B, B]
        assert threading.active_count() == before

    def test_draw_error_in_the_worker_reaches_the_caller(self, monkeypatch):
        threads, make = [], np.random.Generator

        class Failing:
            def __init__(self, bitgen):
                self.rng = make(bitgen)

            def standard_normal(self, *args, out=None):
                threads.append(threading.current_thread())
                if len(threads) == 2:
                    raise FloatingPointError("draw 2")
                return self.rng.standard_normal(*args, out=out)

        monkeypatch.setattr(np.random, "Generator", Failing)
        before = threading.active_count()
        with pytest.raises(FloatingPointError, match="draw 2"):
            simulate(self.GRID, 0.7, McConfig(n_paths=3 * B, seed=36))
        assert threads[1] is not threading.main_thread()
        assert threading.active_count() == before

    def test_one_block_starts_no_thread(self, monkeypatch):
        def no_thread(*args, **kwargs):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(threading, "Thread", no_thread)
        for n in (2, B, B + 1):
            cfg = McConfig(n_paths=n, seed=37)
            assert simulate(self.GRID, 0.7, cfg).values.shape == (n, 3)
            assert mc_expect(parse("B(1)^2"), 0.7, cfg, grid=self.GRID).n_paths == n


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
            mc_expect(TimeIntB((0.0, "u"), 1.0, 1), 0.7, McConfig(n_paths=10, seed=0))

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

    def test_single_path_ensemble_cannot_estimate_error(self):
        # the ensemble's path count decides, not the config's
        with pytest.raises(ValueError, match="standard error needs at least two paths"):
            mc_expect(parse("B(1)"), 0.7, McConfig(n_paths=100),
                      ensemble=simulate(TimeGrid((0.0, 1.0)), 0.7, McConfig(n_paths=1)))
