"""Symbolic calculus tests: derivatives, freezing, strict evaluation, parsing."""

import gc
import io
import math
import tracemalloc
import weakref
from typing import get_args

import numpy as np
import pytest

from fbmseries import cli, expformula, functional, taylor
from fbmseries.expformula import exp_series
from fbmseries.fbm import McConfig, simulate
from fbmseries.functional import (
    ONE,
    Const,
    Exp,
    FbmSample,
    GridPath,
    HermitePoly,
    OffGridTimeError,
    Piecewise,
    Power,
    Product,
    RampMax,
    Sum,
    TimeGrid,
    TimeIntB,
    UnsupportedNodeError,
    WienerInt,
    ZERO,
    collect_terms,
    directional,
    evaluate,
    expand,
    fbm_sample,
    fbm_times,
    free_vars,
    freeze,
    is_deterministic,
    is_discrete,
    make_exp,
    make_power,
    make_product,
    make_sum,
    nodes,
    phi_moment,
    ramp_max,
    scale,
    time_int_b,
    times,
    to_sexpr,
)
from fbmseries.kernel import PiecewisePoly, phi_antiderivative
from fbmseries.parser import ParseError, parse
from fbmseries.quadrature import phi_weighted_integral
from fbmseries.taylor import backward_taylor

from oracles import (grid_partials, indicator, path_from_dict, poly_in_var,
                     quad_phi_moment, tree_evaluate, tree_size)

GRID = TimeGrid((0.0, 0.25, 0.5, 0.75, 1.0))


def sample_path(seed=0, times=GRID.times, n=1):
    """Synthetic rough path on the grid (any values work for calculus checks)."""
    rng = np.random.default_rng(seed)
    vals = np.cumsum(rng.normal(0.0, 0.3, size=(n, len(times))), axis=-1)
    vals[..., 0] = 0.0
    if n == 1:
        return GridPath(times, vals[0])
    return GridPath(times, vals)


class TestConstructors:
    def test_b0_folds_to_zero(self):
        assert fbm_sample(0.0) == ZERO

    def test_product_and_sum_folding(self):
        e = make_product([Const(2.0), Const(3.0), fbm_sample(1.0)])
        assert e == make_product([Const(6.0), fbm_sample(1.0)])
        assert make_sum([ZERO, ZERO]) == ZERO
        assert make_product([ZERO, fbm_sample(1.0)]) == ZERO
        assert make_power(fbm_sample(1.0), 0) == Const(1.0)

    def test_ramp_folding(self):
        assert ramp_max(1.0, (0.3, 0.6)) == Const(0.4)
        assert ramp_max(0.5, (0.9, "u")) == ZERO
        r = ramp_max(1.0, (0.3, "u", "w"))
        assert isinstance(r, RampMax) and r.args == (0.3, "u", "w")
        # one variable, which ranges over [0, horizon]: pieces from 0
        w = PiecewisePoly((0.0, 0.3, 1.0), ((1.0 - 0.3,), (1.0, -1.0)))
        assert ramp_max(1.0, (0.3, "u")) == Piecewise(w, "u")
        assert ramp_max(1.0, ("u",)) == ramp_max(1.0, (-0.5, "u")) == Piecewise(
            PiecewisePoly((0.0, 1.0), ((1.0, -1.0),)), "u")
        assert ramp_max(0.0, ("u",)) == ramp_max(-1.0, (-2.0, "u")) == ZERO

    def test_time_int_folding(self):
        assert time_int_b((0.8,), 0.5) == ZERO
        assert time_int_b((0.9, "u"), 0.5) == ZERO
        assert isinstance(time_int_b((0.1,), 0.5), TimeIntB)


class TestQueries:
    def test_fbm_times_and_horizon(self):
        e = parse("B(0.5)^2*B(1)+IB(0,0.75)")
        assert fbm_times(e) == {0.5, 1.0}
        assert max(times(e)) == 1.0

    def test_times_lists_every_time_constant(self):
        e = make_product([ramp_max(0.9, (0.2, "u", "w")), indicator("u", 0.1, 0.6),
                          parse("WI(1;0.3,0.8)"), time_int_b((0.15, "u"), 0.95)])
        assert times(e) == {0.9, 0.2, 0.1, 0.6, 0.3, 0.8, 0.15, 0.95}
        assert times(ramp_max(0.9, (0.2, "u"))) == {0.0, 0.2, 0.9}

    def test_discrete_and_deterministic(self):
        assert is_discrete(parse("B(0.5)^2*B(1)"))
        assert is_discrete(parse("exp(B(1))"))
        assert not is_discrete(parse("IB2(0,1)"))
        assert is_deterministic(indicator("u", 0.0, 1.0))
        assert not is_deterministic(parse("B(0.25)"))

    def test_free_vars(self):
        d = directional(parse("IB2(0,1)"), "u")
        assert free_vars(d) == {"u"}


class TestMalliavin:
    def test_sample_rule(self):
        assert directional(fbm_sample(0.7), "u") == indicator("u", 0.0, 0.7)

    def test_wiener_rule(self):
        w = WienerInt(PiecewisePoly.from_poly((1.0, 2.0), 0.0, 1.0), 0.0, 1.0)
        d = directional(w, "u")
        assert d == poly_in_var((1.0, 2.0), "u", 0.0, 1.0)

    def test_wiener_rule_of_two_pieces_is_one_node(self):
        weight = PiecewisePoly((0.0, 0.4, 1.0), ((1.0, 2.0), (0.5, -1.0, 3.0)))
        d = directional(WienerInt(weight, 0.25, 0.75), "u")
        assert d == Piecewise(weight.restrict(0.25, 0.75), "u")
        assert d.weight.breaks == (0.25, 0.4, 0.75)
        us = np.array([0.0, 0.25, 0.3, 0.4, 0.6, 0.75, 0.8])
        assert evaluate(d, None, None, {"u": us}).tolist() == [
            0.0, weight(0.25), weight(0.3), weight(0.4), weight(0.6), weight(0.75), 0.0]

    def test_time_integral_rules(self):
        assert directional(time_int_b((0.2,), 1.0), "u") == Piecewise(
            PiecewisePoly((0.0, 0.2, 1.0), ((1.0 - 0.2,), (1.0, -1.0))), "u")
        d = directional(time_int_b((0.0,), 1.0, 2), "u")
        assert d == scale(TimeIntB((0.0, "u"), 1.0, 1), 2.0)

    def test_chain_rule_exp(self):
        f = make_exp(fbm_sample(1.0))
        d = directional(f, "u")
        assert d == make_product([f, indicator("u", 0.0, 1.0)])

    def test_second_derivative_of_cubic(self):
        # D_u D_v (B_t^2 B_T): six chain terms collapse to three products
        f = parse("B(0.5)^2*B(1)")
        d2 = directional(directional(f, "v"), "u")
        path = sample_path(1)
        bt, bT = path.value(0.5), path.value(1.0)
        for u in (0.1, 0.4, 0.6, 0.9):
            for v in (0.2, 0.45, 0.8):
                got = evaluate(d2, path=path, bindings={"u": u, "v": v})
                want = (2.0 * bT * (u <= 0.5) * (v <= 0.5)
                        + 2.0 * bt * (u <= 0.5) * (v <= 1.0)
                        + 2.0 * bt * (v <= 0.5) * (u <= 1.0))
                assert got == pytest.approx(want, rel=1e-12)

    def test_finite_difference_grid_directions(self):
        # bump every sample at times >= tau and compare with the directional rule
        exprs = [parse("B(0.5)^2*B(1)"), parse("exp(B(0.75))"),
                 parse("B(0.25)*B(0.75)+2*B(1)^3")]
        path = sample_path(2)
        eps = 1e-6
        for f in exprs:
            for tau in (0.25, 0.5, 1.0):
                up = GridPath(path.times, path.values
                              + eps * (np.asarray(path.times) >= tau))
                dn = GridPath(path.times, path.values
                              - eps * (np.asarray(path.times) >= tau))
                fd = (evaluate(f, path=up) - evaluate(f, path=dn)) / (2 * eps)
                sym = evaluate(directional(f, tau), path=path)
                assert fd == pytest.approx(sym, rel=1e-6, abs=1e-6)

    def test_finite_difference_continuous_functionals(self):
        # the bump direction is the indicator 1_{[u, .]}; its boundary node
        # carries half trapezoid weight, which makes the comparison exact
        f = make_sum([time_int_b((0.0,), 1.0, 2), time_int_b((0.25,), 1.0)])
        path = sample_path(3, times=tuple(np.linspace(0.0, 1.0, 41)))
        eps = 1e-6
        ts = np.asarray(path.times)
        for u in (ts[14], ts[20], ts[33]):
            bump = eps * ((ts > u) + 0.5 * (ts == u))
            fd = (evaluate(f, path=GridPath(path.times, path.values + bump))
                  - evaluate(f, path=GridPath(path.times, path.values - bump))) / (2 * eps)
            sym = evaluate(directional(f, "u"), path=path, bindings={"u": u})
            assert fd == pytest.approx(sym, rel=1e-6, abs=1e-6)

    def test_third_order_mixed_finite_difference(self):
        # |q| = 3 mixed grid partial against a third-order central difference
        f = parse("B(0.5)^3*B(1)^2")
        path = sample_path(5)
        eps = 1e-4
        taus = (0.5, 0.5, 1.0)

        def bumped(signs):
            v = path.values.copy()
            for s, tau in zip(signs, taus):
                v = v + s * eps * (np.asarray(path.times) >= tau)
            return evaluate(f, path=GridPath(path.times, v))

        fd = 0.0
        for s1 in (+1, -1):
            for s2 in (+1, -1):
                for s3 in (+1, -1):
                    fd += s1 * s2 * s3 * bumped((s1, s2, s3))
        fd /= (2 * eps) ** 3
        sym = f
        for tau in taus:
            sym = directional(sym, tau)
        assert fd == pytest.approx(evaluate(sym, path=path), rel=1e-5, abs=1e-5)

    @pytest.mark.parametrize("src", ["WI(1+s;0,1)*B(1)", "IB(0.25,1)*B(0.5)",
                                     "IB2(0,1)*exp(0.1*B(1))", "B(0.5)^2*B(1)"])
    def test_grid_time_direction_is_free_direction_bound(self, src):
        f = parse(src)
        path = sample_path(5, times=tuple(k / 40 for k in range(41)))
        free = directional(f, "u")
        for tau in (0.2, 0.5, 0.8):
            want = evaluate(free, path=path, bindings={"u": tau})
            got = evaluate(directional(f, tau), path=path)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


class TestFreeze:
    @pytest.mark.parametrize("src", [
        "B(0.5)^2*B(1)",
        "exp(B(1))",
        "IB(0,1)",
        "IB2(0,1)",
        "WI(2*s+1;0,1)",
        "B(0.25)*IB(0.25,0.75)+IB2(0.5,1)",
    ])
    @pytest.mark.parametrize("r", [0.0, 0.25, 0.5, 1.0])
    def test_freeze_equals_stopped_path(self, src, r):
        # freezing the functional == evaluating on the path stopped at r
        f = parse(src)
        path = sample_path(4)
        stopped_vals = np.array([path.value(min(t, r)) for t in path.times])
        stopped = GridPath(path.times, stopped_vals)
        got = evaluate(freeze(f, r), path=path)
        want = evaluate(f, path=stopped)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_freeze_idempotent(self):
        for src in ("B(0.5)^2*B(1)", "IB(0,1)", "IB2(0.25,1)", "exp(IB(0,0.5))"):
            f = parse(src)
            once = freeze(f, 0.5)
            twice = freeze(once, 0.5)
            assert once == twice

    def test_freeze_at_zero_kills_time_integrals(self):
        assert freeze(parse("IB(0,1)"), 0.0) == ZERO
        assert freeze(parse("IB2(0,1)"), 0.0) == ZERO
        assert freeze(parse("B(0.7)"), 0.0) == ZERO

    def test_freeze_symbolic_lower_limit(self):
        # (int_{max(a,u)}^b B ds frozen at r) = int_{max(a,u)}^r B ds + B_r (b - max(a,u,r))^+
        e = TimeIntB((0.25, "u"), 1.0, 1)
        fr = freeze(e, 0.5)
        path = sample_path(6)
        for u in (0.0, 0.25, 0.5, 0.75, 1.0):
            stopped = GridPath(path.times,
                               np.array([path.value(min(t, 0.5)) for t in path.times]))
            got = evaluate(fr, path=path, bindings={"u": u})
            want = evaluate(e, path=stopped, bindings={"u": u})
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


class TestEvaluate:
    def test_off_grid_strictness(self):
        path = sample_path(0)
        with pytest.raises(OffGridTimeError):
            evaluate(fbm_sample(0.3), path=path)
        with pytest.raises(OffGridTimeError):
            evaluate(time_int_b((0.1,), 1.0), path=path)

    @pytest.mark.parametrize("power", [1, 2])
    def test_trapezoid_has_the_bits_of_numpy(self, power):
        ts = tuple(i / 16 for i in range(17))
        block = np.random.default_rng(4).standard_normal((64, 2 * len(ts)))
        for values in (block[0, :len(ts)], block[:, :len(ts)], block[:, ::2]):
            path = GridPath(ts, values)
            pw = (lambda x: x) if power == 1 else (lambda x: x * x)
            ys = pw(values)
            assert np.array_equal(path.trapezoid(power, 0.0, 1.0),
                                  np.trapezoid(ys, ts, axis=-1))
            assert np.array_equal(path.trapezoid(power, 0.25, 0.75),
                                  np.trapezoid(ys[..., 4:13], ts[4:13], axis=-1))
            # a lower limit off the grid: the cell from the interpolant at
            # 0.3, then the rule from the next grid time
            at_lo = values[..., 4] + (values[..., 5] - values[..., 4]) * (
                (0.3 - ts[4]) / (ts[5] - ts[4]))
            head = 0.5 * (pw(at_lo) + ys[..., 5]) * (ts[5] - 0.3)
            assert np.array_equal(path.trapezoid(power, 0.3, 1.0),
                                  head + np.trapezoid(ys[..., 5:], ts[5:], axis=-1))

    def test_vectorized_matches_scalar(self):
        paths = sample_path(9, n=64)
        f = parse("B(0.5)^2*B(1)+exp(B(0.25))")
        vec = evaluate(f, path=paths)
        for i in (0, 17, 63):
            single = GridPath(paths.times, paths.values[i])
            assert vec[i] == pytest.approx(evaluate(f, path=single), rel=1e-14)

    def test_time_integral_from_a_bound_variable_follows_the_interpolant(self):
        # a quadrature node u between grid times starts int_u^1 B ds from the
        # path's linear interpolant, so a 4x finer grid carrying that same
        # interpolant gives the same integral
        coarse = sample_path(6, n=4)
        fine_times = TimeGrid(coarse.times).refine(4).times
        fine = GridPath(fine_times, np.stack([np.interp(fine_times, coarse.times, v)
                                              for v in coarse.values]))
        f = time_int_b((0.0, "u"), 1.0)
        for u in (0.1, 0.4, 0.9):
            assert u not in fine_times
            at_u = np.stack([np.interp(u, coarse.times, v) for v in coarse.values])
            ts = [t for t in coarse.times if t > u]
            vals = [at_u] + [coarse.value(t) for t in ts]
            want = sum(0.5 * (a + b) * (t1 - t0) for a, b, t0, t1
                       in zip(vals, vals[1:], [u] + ts, ts))
            got = evaluate(f, path=coarse, bindings={"u": u})
            assert got == pytest.approx(want, rel=1e-14)
            assert evaluate(f, path=fine, bindings={"u": u}) == pytest.approx(
                got, rel=1e-13)
        # limits that belong to the functional stay strict
        with pytest.raises(OffGridTimeError):
            evaluate(time_int_b((0.1, "u"), 1.0), path=coarse, bindings={"u": 0.05})
        with pytest.raises(OffGridTimeError):
            evaluate(time_int_b((0.1,), 1.0, 2), path=coarse)

    def test_wiener_integral_linearity(self):
        path = sample_path(10)
        w1 = parse("WI(1;0,1)")
        increments = path.value(1.0) - path.value(0.0)
        assert evaluate(w1, path=path) == pytest.approx(increments, rel=1e-12)

    def test_stieltjes_equals_the_per_midpoint_sum(self):
        paths = sample_path(11, times=tuple(k / 16 for k in range(17)), n=8)
        w = PiecewisePoly((0.0, 0.3, 1.0), ((1.0, 2.0), (0.5, -1.0, 3.0)))
        i, j = paths.index_of(0.125), paths.index_of(1.0)
        ts = np.asarray(paths.times[i:j + 1])
        mids = 0.5 * (ts[:-1] + ts[1:])
        want = np.sum(np.asarray([w(m) for m in mids])
                      * np.diff(paths.values[..., i:j + 1], axis=-1), axis=-1)
        assert np.array_equal(paths.stieltjes(w, 0.125, 1.0), want)

    def test_phi_moment_indicator(self):
        got = phi_moment((indicator("u", 0.0, 0.5),), "u", 0.0, 1.0, 0.8, 0.7)
        assert got == pytest.approx(phi_antiderivative(0.0, 0.5, 0.8, 0.7), rel=1e-13)

    def test_phi_moment_integer_constant_factor(self):
        # a hand-built integer constant scales the moment like its float
        def moment(c):
            return phi_moment((c, indicator("u", 0.0, 0.5)), "u", 0.0, 1.0, 0.3, 0.7)

        assert moment(Const(2)) == moment(Const(2.0)) == 1.6003489760274316

    def test_phi_moment_ramp_with_other_var(self):
        # breakpoint of the ramp depends on a second bound variable
        h, v, wv = 0.72, 0.4, 0.55
        got = phi_moment((RampMax(1.0, (0.2, "u", "w")),), "u", 0.0, 1.0, v, h,
                         bindings={"w": wv})
        want = quad_phi_moment(lambda u: max(0.0, 1.0 - max(0.2, u, wv)),
                               0.0, 1.0, v, h)
        assert got == pytest.approx(want, rel=1e-9)

    def test_residual_integral_matches_exact_moment(self):
        # the closed form agrees with the singularity-absorbing quadrature of
        # the pointwise integrand, split at the ramp's kinks
        ramp = ramp_max(1.0, (0.2, "u"))
        h = 0.68
        for v in (0.15, 0.5, 0.95):
            a = phi_moment((ramp,), "u", 0.0, 1.0, v, h)
            b = phi_weighted_integral(lambda us: evaluate(ramp, h, None, {"u": us}),
                                      0.0, 1.0, v, h, breaks=[0.2, 1.0], rel_tol=1e-10)
            assert b == pytest.approx(a, rel=1e-8)

    def test_path_from_dict(self):
        p = path_from_dict({0.5: 1.2, 1.0: -0.3})
        assert p.value(0.5) == 1.2
        assert p.value(0.0) == 0.0

    def test_path_values_are_a_read_only_view(self):
        vals = np.array([[0.0, 0.1, 0.2], [0.0, -0.1, 0.3]])
        path = GridPath((0.0, 0.5, 1.0), vals)
        assert np.shares_memory(path.values, vals) and vals.flags.writeable
        sample = evaluate(fbm_sample(0.5), path=path)
        with pytest.raises(ValueError, match="read-only"):
            sample += 1.0
        with pytest.raises(ValueError, match="read-only"):
            path.values[0, 1] = 5.0
        assert vals.tolist() == [[0.0, 0.1, 0.2], [0.0, -0.1, 0.3]]


class TestGridPartials:
    def test_known_second_partial(self):
        f = parse("B(0.5)^2*B(1)", TimeGrid((0.0, 0.5, 1.0)))
        got = grid_partials(f, TimeGrid((0.0, 0.5, 1.0)), (2, 0))
        path = sample_path(11)
        want = 2.0 * path.value(1.0) + 4.0 * path.value(0.5)
        assert evaluate(got, path=path) == pytest.approx(want, rel=1e-12)

    def test_rejects_non_discrete(self):
        with pytest.raises(UnsupportedNodeError):
            grid_partials(parse("IB(0,1)"), GRID, (1, 0, 0, 0))

    def test_rejects_off_grid_samples(self):
        with pytest.raises(ValueError):
            grid_partials(parse("B(0.3)"), GRID, (1, 0, 0, 0))

    def test_rejects_bad_multi_index(self):
        with pytest.raises(ValueError):
            grid_partials(parse("B(0.5)"), GRID, (1, 0))


class TestTimeGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            TimeGrid((0.5, 1.0))
        with pytest.raises(ValueError):
            TimeGrid((0.0, 1.0, 1.0))

    def test_locate(self):
        g = TimeGrid((0.0, 0.5, 1.0))
        assert g.locate(0.0) == 1
        assert g.locate(0.2) == 1
        assert g.locate(0.5) == 1
        assert g.locate(0.500001) == 2
        assert g.locate(1.0) == 2
        with pytest.raises(ValueError):
            g.locate(1.5)

    def test_refine_and_union(self):
        g = TimeGrid((0.0, 0.5, 1.0)).refine(2)
        assert g.times == (0.0, 0.25, 0.5, 0.75, 1.0)
        assert TimeGrid.covering(g.times + (0.6,)).times == (0.0, 0.25, 0.5, 0.6,
                                                             0.75, 1.0)

    def test_refine_keeps_every_grid_time(self):
        # a + (b - a) * k / k misses b = 0.45 by one ulp
        assert TimeGrid((0.0, 0.1, 0.45)).refine(1).times == (0.0, 0.1, 0.45)
        for k in (2, 3, 7):
            fine = TimeGrid((0.0, 0.1, 0.45, 1.0)).refine(k).times
            assert len(fine) == 3 * k + 1
            assert {0.1, 0.45, 1.0} <= set(fine)

    def test_covering_adds_the_origin_and_drops_duplicates(self):
        assert TimeGrid.covering((1.0, 0.5, 0.0, 0.5)).times == (0.0, 0.5, 1.0)
        with pytest.raises(ValueError):
            TimeGrid.covering((0.0,))


class TestSerialization:
    def test_golden_forms(self):
        assert to_sexpr(parse("B(0.5)^2*B(1)")) == "(* (^ (B 0.5) 2) (B 1.0))"
        assert to_sexpr(parse("IB(0.25,1)")) == "(IB (max 0.25) 1.0)"
        assert to_sexpr(parse("exp(-1*IB2(0,1))")) == "(exp (* -1.0 (IB2 0.0 1.0)))"

    def test_rename_for_structural_matching(self):
        a = directional(fbm_sample(0.5), "u1")
        b = directional(fbm_sample(0.5), "u2")
        assert to_sexpr(a, rename={"u1": "%"}) == to_sexpr(b, rename={"u2": "%"})

    def test_expand_distributes(self):
        e = make_product([make_sum([fbm_sample(0.5), Const(2.0)]),
                          make_sum([fbm_sample(1.0), Const(3.0)])])
        terms = expand(e)
        assert len(terms) == 4


class TestParser:
    def test_structural(self):
        assert parse("B(0.5)") == FbmSample(0.5)
        assert parse("2*B(1)") == make_product([Const(2.0), FbmSample(1.0)])
        assert parse("B(1)-B(0.5)") == make_sum([FbmSample(1.0),
                                                 scale(FbmSample(0.5), -1.0)])
        assert parse("IB2(0,1)") == time_int_b((0.0,), 1.0, 2)

    def test_grid_symbols(self):
        g = TimeGrid((0.0, 0.5, 1.0))
        assert parse("B(t1)^2*B(T)", g) == parse("B(0.5)^2*B(1)")
        with pytest.raises(ParseError):
            parse("B(t3)", g)
        with pytest.raises(ParseError):
            parse("B(T)")

    def test_wiener_weight_polynomials(self):
        w = parse("WI(s^2-0.5*s+1;0,1)")
        assert isinstance(w, WienerInt)
        assert w.weight.coeffs[0] == (1.0, -0.5, 1.0)

    def test_syntax_error_offsets(self):
        with pytest.raises(ParseError) as e:
            parse("B(0.5")
        assert e.value.offset == 6
        with pytest.raises(ParseError) as e:
            parse("B(0.5)@2")
        assert e.value.offset == 7

    def test_unknown_symbol(self):
        with pytest.raises(ParseError, match="unknown symbol"):
            parse("Q(0.5)")

    def test_time_validation(self):
        g = TimeGrid((0.0, 0.5, 1.0))
        with pytest.raises(ParseError, match="exceeds the horizon"):
            parse("B(1.5)", g)
        with pytest.raises(ParseError, match="nonempty"):
            parse("IB(1,0.5)")

    def test_trailing_input(self):
        with pytest.raises(ParseError, match="trailing"):
            parse("B(1) B(0.5)")

    def test_float_exponent_rejected(self):
        with pytest.raises(ParseError):
            parse("B(1)^2.5")


class TestInterning:
    def test_equal_constructions_are_one_node(self):
        src = "exp(0.5*B(1))*B(0.5)^2+IB(0.25,1)"
        assert parse(src) is parse(src)
        assert Const(1.0) is ONE
        assert make_sum([fbm_sample(0.5), fbm_sample(1.0)]) is \
            Sum((FbmSample(0.5), FbmSample(1.0)))
        f = parse(src)
        assert directional(f, 0.5) is directional(f, 0.5)
        assert freeze(f, 0.3) is freeze(f, 0.3)

    def test_signed_zero_and_number_type_stay_apart(self):
        # 0.0 == -0.0 and 2 == 2.0, but the serialized forms differ
        assert Const(-0.0) is not ZERO
        assert to_sexpr(Const(-0.0)) == "-0.0"
        plus = poly_in_var((0.0, 1.0), "u")
        minus = poly_in_var((-0.0, 1.0), "u")
        assert minus is not plus
        assert to_sexpr(minus) == "(pw u ((0.0 1.0 -0.0 1.0)))"
        two_int, two = Const(2), Const(2.0)
        assert two_int is not two
        assert type(two_int.value) is int and type(two.value) is float
        # the inline key of a one-plain-field kind interns equal fields once
        assert Const(0.0) is ZERO and Const(-0.0) is Const(-0.0)
        assert Const(2) is two_int and Const(1.0) is ONE
        b = FbmSample(0.5)
        assert Power(b, 2) is Power(b, 2) and Power(b, 2) is not Power(b, 3)

    def test_kinds_without_plain_fields_intern_on_their_operands(self):
        b, c = FbmSample(0.5), FbmSample(1.0)
        assert Sum((b, c)) is Sum((b, c)) is make_sum([b, c])
        assert Product((b, c)) is Product((b, c)) is make_product([b, c])
        assert Exp(b) is Exp(b) is make_exp(b)
        assert Sum((b, c)) is not Sum((c, b)) and Product((b, c)) is not Product((c, b))
        # the operand tuple is the key; the kind keeps a sum and a product apart
        assert Sum((b, c)) is not Product((b, c))
        assert Exp(b) is not Exp(c)

    def test_kinds_with_several_plain_fields_intern_as_before(self):
        assert indicator("u", 0.0, 1.0) is indicator("u", 0.0, 1.0)
        assert indicator("u", -0.0, 1.0) is not indicator("u", 0.0, 1.0)
        assert indicator("u", 0.0, 1) is not indicator("u", 0.0, 1.0)
        assert indicator("v", 0.0, 1.0) is not indicator("u", 0.0, 1.0)
        assert TimeIntB((0.0, "u"), 1.0, 2) is TimeIntB((0.0, "u"), 1.0, 2)
        assert TimeIntB((0.0, "u"), 1.0, 2) is not TimeIntB((0.0, "u"), 1.0, 1)
        assert TimeIntB((-0.0, "u"), 1.0, 2) is not TimeIntB((0.0, "u"), 1.0, 2)
        assert RampMax(1.0, (0.5, "u", "w")) is RampMax(1.0, (0.5, "u", "w"))
        assert RampMax(1, (0.5, "u", "w")) is not RampMax(1.0, (0.5, "u", "w"))

    @pytest.mark.parametrize("args", [("u",), (0.2,), (0.2, "u"), ("u", "u")])
    def test_ramp_max_node_needs_two_variable_names(self, args):
        # fewer names have no kernel moment as a RampMax; ramp_max folds them
        for _ in range(2):
            with pytest.raises(ValueError, match="ramp_max folds fewer"):
                RampMax(1.0, args)
        assert not isinstance(ramp_max(1.0, args), RampMax)

    @pytest.mark.parametrize("exponent", [-1, 2.0])
    def test_power_checks_its_exponent_on_every_construction(self, exponent):
        # a refused node is never interned, so asking again raises again
        for _ in range(2):
            with pytest.raises(ValueError, match="nonnegative integer"):
                Power(FbmSample(0.5), exponent)

    @pytest.mark.parametrize("build, kind, n", [
        (lambda: Const(), "Const", 1),
        (lambda: Const(1.0, 2.0), "Const", 1),
        (lambda: FbmSample(), "FbmSample", 1),
        (lambda: Power(FbmSample(0.5)), "Power", 2),
        (lambda: Piecewise(PiecewisePoly.indicator(0.0, 1.0)), "Piecewise", 2),
        (lambda: Sum(), "Sum", 1),
        (lambda: Exp(ONE, ONE), "Exp", 1),
    ], ids=["Const()", "Const(1,2)", "FbmSample()", "Power(b)", "Piecewise(w)",
            "Sum()", "Exp(1,1)"])
    def test_a_wrong_number_of_fields_is_a_type_error(self, build, kind, n):
        with pytest.raises(TypeError, match=rf"^{kind} takes {n} fields$"):
            build()

    def test_nodes_visits_each_distinct_node_once(self):
        x = parse("exp(0.5*B(1))")
        e = make_sum([make_product([x, fbm_sample(0.5)]),
                      make_product([x, fbm_sample(0.25)])])
        seen = list(nodes(e))
        assert len(seen) == len({id(n) for n in seen}) < tree_size(e)

    @pytest.mark.parametrize("rule, op", [
        ("derivative", lambda e: directional(e, 0.5)),
        ("derivative", lambda e: directional(e, "u")),
        ("frozen", lambda e: freeze(e, 0.3)),
    ])
    def test_each_distinct_node_is_handled_once(self, monkeypatch, rule, op):
        x = parse("exp(0.5*B(1))*B(0.75)^2")
        e = make_sum([make_product([x, fbm_sample(k / 4)]) for k in range(1, 5)])
        seen = []

        def counting(real):
            def counted(node, operands, arg):
                seen.append(id(node))
                return real(node, operands, arg)
            return counted

        for kind in get_args(functional.Expr):
            monkeypatch.setattr(kind, rule, counting(getattr(kind, rule)))
        op(e)
        assert len(seen) == len(set(seen)) == len(list(nodes(e)))

    @pytest.mark.parametrize("op", [
        lambda f: directional(f, 0.5),
        lambda f: directional(directional(f, "v"), "u"),
        lambda f: freeze(f, 0.3),
        lambda f: evaluate(f, path=sample_path(3, n=4)),
        lambda f: backward_taylor(f, 0.3, GRID, 4, 0.7),
        lambda f: exp_series(f, 0.0, 1.0, 0.7, 3),
        lambda f: exp_series(parse("exp(-IB2(0,1))"), 0.3, 1.0, 0.7, 1,
                             path=sample_path(4, times=(0.0, 0.15, 0.3, 0.65, 1.0))),
        lambda f: exp_series(parse("exp(-IB2(0,1))"), 0.0, 1.0, 0.7, 2),
        lambda f: cli.main(["taylor", "--hurst", "0.7", "--T", "1", "--r", "0.3",
                            "--grid", "0,0.25,0.5,0.75,1", "--expr", "exp(0.25*B(1))",
                            "--order", "3", "--mc.paths", "4", "--format", "json"],
                           stdout=io.StringIO()),
        lambda f: cli.main(["expform", "--hurst", "0.7", "--T", "1", "--r", "0.3",
                            "--expr", "IB(0,1)*B(1)", "--order", "2", "--mc.paths", "1",
                            "--format", "json"], stdout=io.StringIO()),
    ], ids=["grid_time", "free", "freeze", "evaluate", "backward_taylor",
            "exp_series_exact", "exp_series_quadrature", "exp_series_symmetrized",
            "cli_taylor", "cli_expform"])
    def test_leaves_no_reference_cycle(self, op):
        # the engines run with the cyclic collector paused, which frees
        # nothing only while these leave no cycle behind.  The CLI's parser
        # is built first: argparse's help formatters, made once per process
        # when it is built, refer to each other
        f = parse("exp(0.5*B(1))*B(0.5)^2+B(0.25)*B(0.75)")
        cli._build_parser()
        gc.collect()
        gc.disable()
        try:
            op(f)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_intern_entries_go_with_their_nodes(self):
        before = len(functional._interned)
        f = parse("exp(0.123*B(0.77))*B(0.5)^3")
        d = collect_terms(directional(directional(f, 0.5), "u"))
        evaluate(freeze(d, 0.25), path=sample_path(4), bindings={"u": 0.2})
        probe = weakref.ref(f)
        assert len(functional._interned) > before
        del f, d
        assert probe() is None
        assert len(functional._interned) == before


# each engine on exp(0.5 B_1) B_.5, and a function it calls after its
# argument checks
_ENGINES = {
    "backward_taylor": (lambda r, order: backward_taylor(
        parse("exp(0.5*B(1))*B(0.5)"), r, GRID, order, 0.7), taylor, "psi_orders"),
    "exp_series": (lambda r, order: exp_series(
        parse("exp(0.5*B(1))*B(0.5)"), r, 1.0, 0.7, order), expformula, "_level_value"),
}


class TestCollectorPause:
    """Each engine runs with the cyclic collector off and leaves it as it
    found it, however the call ends."""

    @pytest.fixture(params=[True, False], ids=["found_on", "found_off"])
    def found_on(self, request):
        if not request.param:
            gc.disable()
        yield request.param
        gc.enable()

    @pytest.mark.parametrize("engine", _ENGINES)
    def test_paused_during_the_call_and_restored(self, monkeypatch, engine, found_on):
        call, module, name = _ENGINES[engine]
        seen = []
        real = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *a, **k: seen.append(gc.isenabled()) or real(*a, **k))
        call(0.3, 3)
        assert seen and not any(seen)
        assert gc.isenabled() is found_on

    @pytest.mark.parametrize("r, order, raised", [
        (0.3, -1, ValueError), (-0.1, 2, ValueError), (1.5, 2, ValueError),
        (0.3, 3, KeyboardInterrupt),
    ], ids=["order", "r_below", "r_above", "interrupt"])
    @pytest.mark.parametrize("engine", _ENGINES)
    def test_restored_when_the_call_raises(self, monkeypatch, engine, r, order, raised,
                                           found_on):
        # an argument check raises before the engine reaches the function
        # patched here; a valid call raises a BaseException mid-call, as a
        # time limit's alarm would
        call, module, name = _ENGINES[engine]

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(module, name, interrupted)
        with pytest.raises(raised):
            call(r, order)
        assert gc.isenabled() is found_on


def _shared_terms():
    """Functionals and their symbolic series terms, the DAGs of which share subtrees."""
    exprs = []
    for src, r in [("exp(0.5*B(1))", 0.3), ("B(0.5)^2*exp(0.1*B(1))", 0.6),
                   ("B(0.25)*B(0.75)+B(1)^3", 0.3),
                   ("exp(0.06*B(0.5)+0.08*B(1))", 0.3)]:
        f = parse(src)
        exprs += [f] + backward_taylor(f, r, GRID, 5, 0.7).terms
    for src in ["IB(0,1)*B(1)", "WI(1+s;0,1)*B(1)", "IB2(0,1)", "exp(IB(0,1))",
                "B(0.25)*B(0.75)+B(1)^3", "exp(0.5*B(1))"]:
        f = parse(src)
        exprs += [f] + exp_series(f, 0.3, 1.0, 0.7, 2).terms
    return exprs


class TestSharedEvaluation:
    def test_matches_tree_recursive_evaluation_bit_for_bit(self):
        grid = TimeGrid.covering({k / 16 for k in range(17)} | {0.3, 0.6})
        ens = simulate(grid, 0.7, McConfig(n_paths=64, seed=21))
        exprs = _shared_terms()
        assert any(len(list(nodes(e))) < tree_size(e) for e in exprs)
        for path in (ens.path(5), ens.as_grid_path()):
            for e in exprs:
                got = evaluate(e, h=0.7, path=path)
                want = tree_evaluate(e, h=0.7, path=path)
                assert np.array_equal(np.asarray(got), np.asarray(want)), to_sexpr(e)

    def test_joint_schedule_matches_per_root_evaluation_exactly(self):
        grid = TimeGrid.covering({k / 16 for k in range(17)} | {0.3, 0.6})
        ens = simulate(grid, 0.7, McConfig(n_paths=32, seed=22))
        x = parse("exp(0.5*B(1))")
        # a root inside another root, and a repeated root, keep their values
        exprs = _shared_terms() + [make_product([x, fbm_sample(0.5)]), x, x]
        joint = set().union(*[{id(n) for n in nodes(e)} for e in exprs])
        assert len(joint) < sum(len(list(nodes(e))) for e in exprs)
        for path in (ens.path(5), ens.as_grid_path()):
            got = evaluate(exprs, h=0.7, path=path)
            assert len(got) == len(exprs)
            for e, g in zip(exprs, got):
                want = evaluate(e, h=0.7, path=path)
                assert np.array_equal(np.asarray(g), np.asarray(want)), to_sexpr(e)

    def test_peak_memory_stays_a_few_path_widths(self):
        # a sum of products over a deep chain of shared subtrees: a value
        # kept past its last use, or the terms of a sum all kept until the
        # sum is formed, would hold dozens of 40k-path arrays at once
        n = 40_000
        paths = sample_path(5, n=n)
        x, terms = fbm_sample(1.0), []
        for k in range(24):
            x = make_exp(scale(make_sum([x, fbm_sample(0.5)]), 0.1))
            terms.append(make_product([Const(k + 1.0), x, fbm_sample(0.25)]))
        f = make_sum(terms)
        want = tree_evaluate(f, path=paths)
        gc.collect()
        tracemalloc.start()
        try:
            got = evaluate(f, path=paths)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, want)
        assert peak < 8 * n * 8


class TestInPlaceEvaluation:
    """Sums and products accumulate in arrays they made themselves: a path,
    a binding or an operand's value is never written."""

    B5, B1 = fbm_sample(0.5), fbm_sample(1.0)
    X = Sum((B5, B1))
    # B(t) or a value aliasing it first; x is a root and an operand of others
    ROOTS = [X, Product((B5, B1, make_exp(B1))), Sum((HermitePoly(1, B5), Const(2.0), B1)),
             Product((X, B5)), make_sum([X, fbm_sample(0.75)]),
             make_product([Const(3.0), B5, X]), Product((Const(0.5), Const(3.0), X)), X]

    @pytest.mark.parametrize("n", [1, 20])
    def test_paths_kept_and_values_match_the_out_of_place_oracle(self, n, monkeypatch):
        monkeypatch.setattr(functional, "_PATH_BLOCK", 8)  # 20 paths: three blocks
        ens = simulate(GRID, 0.7, McConfig(n_paths=n, seed=41))
        values = ens.values[0] if n == 1 else ens.values
        kept = values.copy()
        path = GridPath(GRID.times, values)
        got = evaluate(self.ROOTS, path=path)
        singles = [evaluate(e, path=path) for e in self.ROOTS]
        assert values.tobytes() == kept.tobytes()
        ref = GridPath(GRID.times, kept)
        for e, g, s in zip(self.ROOTS, got, singles):
            want = np.asarray(tree_evaluate(e, path=ref))
            assert np.shape(g) == want.shape and np.asarray(g).tobytes() == want.tobytes()
            assert np.asarray(s).tobytes() == want.tobytes()
        assert got[0].tobytes() == got[-1].tobytes()

    def test_array_bindings_kept_and_values_match_the_out_of_place_oracle(self):
        vals = np.concatenate([[0.0], np.cumsum(np.random.default_rng(4).normal(0, .3, 4))])
        u, w = np.linspace(0.0, 1.0, 9), np.linspace(0.1, 0.9, 9)
        kept = [a.copy() for a in (vals, u, w)]
        path, bindings = GridPath(GRID.times, vals), {"u": u, "w": w}
        ind, poly = indicator("u", 0.0, 0.5), poly_in_var((1.0, 2.0), "w")
        roots = [Sum((ind, poly, self.B5)), Product((ramp_max(1.0, ("u",)), poly, Const(3.0))),
                 Product((time_int_b(("u",), 1.0), self.B5)), Sum((HermitePoly(1, poly), ind)),
                 make_product([Const(2.0), poly, ind])]
        got = evaluate(roots, path=path, bindings=bindings)
        assert all(a.tobytes() == b.tobytes() for a, b in zip((vals, u, w), kept))
        for e, g in zip(roots, got):
            want = np.asarray(tree_evaluate(e, path=path, bindings=bindings))
            assert g.shape == u.shape and g.tobytes() == want.tobytes()

    def test_wide_taylor_schedule_resolves_its_constants_when_built(self):
        # the terms the ensemble benchmark evaluates on 40k paths: 9644
        # steps a block when every constant and empty sum was a step
        terms = backward_taylor(parse("exp(0.1*B(1))"), 0.3, GRID, 6, 0.7).terms
        _, steps, _ = functional._schedule(terms)
        assert len(steps) <= 5600
        assert not any(isinstance(node, Const) or node.combine and arg is None
                       for node, _, arg, _ in steps)
