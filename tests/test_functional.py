"""Symbolic calculus tests: derivatives, freezing, strict evaluation, parsing."""

import gc
import math
import tracemalloc
import weakref
from typing import get_args

import numpy as np
import pytest

from fbmseries import functional
from fbmseries.expformula import exp_series
from fbmseries.fbm import McConfig, simulate
from fbmseries.functional import (
    ONE,
    Const,
    FbmSample,
    GridPath,
    Indicator,
    OffGridTimeError,
    PolyInVar,
    PhiMoment,
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

from oracles import (grid_partials, path_from_dict, quad_phi_moment, tree_evaluate,
                     tree_size)

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
        r = ramp_max(1.0, (0.3, "u"))
        assert isinstance(r, RampMax) and r.args == (0.3, "u")

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
        e = make_product([RampMax(0.9, (0.2, "u")), Indicator("u", 0.1, 0.6),
                          PhiMoment((Indicator("w", 0.05, 0.4),), "w", 0.0, 0.7, "u"),
                          parse("WI(1;0.3,0.8)"), time_int_b((0.15, "u"), 0.95)])
        assert times(e) == {0.9, 0.2, 0.1, 0.6, 0.05, 0.4, 0.0, 0.7, 0.3, 0.8,
                            0.15, 0.95}

    def test_discrete_and_deterministic(self):
        assert is_discrete(parse("B(0.5)^2*B(1)"))
        assert is_discrete(parse("exp(B(1))"))
        assert not is_discrete(parse("IB2(0,1)"))
        assert is_deterministic(Indicator("u", 0.0, 1.0))
        assert not is_deterministic(parse("B(0.25)"))

    def test_free_vars(self):
        d = directional(parse("IB2(0,1)"), "u")
        assert free_vars(d) == {"u"}


class TestMalliavin:
    def test_sample_rule(self):
        assert directional(fbm_sample(0.7), "u") == Indicator("u", 0.0, 0.7)

    def test_wiener_rule(self):
        w = WienerInt(PiecewisePoly.from_poly((1.0, 2.0), 0.0, 1.0), 0.0, 1.0)
        d = directional(w, "u")
        assert d == make_product([PolyInVar((1.0, 2.0), "u"), Indicator("u", 0.0, 1.0)])

    def test_time_integral_rules(self):
        assert directional(time_int_b((0.2,), 1.0), "u") == RampMax(1.0, (0.2, "u"))
        d = directional(time_int_b((0.0,), 1.0, 2), "u")
        assert d == scale(TimeIntB((0.0, "u"), 1.0, 1), 2.0)

    def test_chain_rule_exp(self):
        f = make_exp(fbm_sample(1.0))
        d = directional(f, "u")
        assert d == make_product([f, Indicator("u", 0.0, 1.0)])

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

    def test_malliavin_of_residual_integral_unsupported(self):
        node = PhiMoment((fbm_sample(0.5),), "u", 0.0, 1.0, "v")
        with pytest.raises(UnsupportedNodeError):
            directional(node, "w")


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
        node = PhiMoment((Indicator("u", 0.0, 0.5),), "u", 0.0, 1.0, "v")
        got = evaluate(node, h=0.7, bindings={"v": 0.8})
        assert got == pytest.approx(phi_antiderivative(0.0, 0.5, 0.8, 0.7), rel=1e-13)

    def test_phi_moment_integer_constant_factor(self):
        # a hand-built integer constant scales the moment like its float
        def moment(c):
            node = PhiMoment((c, Indicator("u", 0.0, 0.5)), "u", 0.0, 1.0, "v")
            return evaluate(node, 0.7, bindings={"v": 0.3})

        assert moment(Const(2)) == moment(Const(2.0)) == 1.6003489760274316

    def test_phi_moment_ramp_with_other_var(self):
        # breakpoint of the ramp depends on a second bound variable
        node = PhiMoment((RampMax(1.0, (0.2, "u", "w")),), "u", 0.0, 1.0, "v")
        h, v, wv = 0.72, 0.4, 0.55
        got = evaluate(node, h=h, bindings={"v": v, "w": wv})
        want = quad_phi_moment(lambda u: max(0.0, 1.0 - max(0.2, u, wv)),
                               0.0, 1.0, v, h)
        assert got == pytest.approx(want, rel=1e-9)

    def test_residual_integral_matches_exact_moment(self):
        # the closed form agrees with the singularity-absorbing quadrature of
        # the pointwise integrand, split at the ramp's kinks
        ramp = RampMax(1.0, (0.2, "u"))
        exact = PhiMoment((ramp,), "u", 0.0, 1.0, "v")
        h = 0.68
        for v in (0.15, 0.5, 0.95):
            a = evaluate(exact, h=h, bindings={"v": v})
            b = phi_weighted_integral(lambda us: evaluate(ramp, h, None, {"u": us}),
                                      0.0, 1.0, v, h, breaks=[0.2, 1.0], rel_tol=1e-10)
            assert b == pytest.approx(a, rel=1e-8)

    def test_path_from_dict(self):
        p = path_from_dict({0.5: 1.2, 1.0: -0.3})
        assert p.value(0.5) == 1.2
        assert p.value(0.0) == 0.0


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
        plus = PolyInVar((0.0, 1.0), "u")
        minus = PolyInVar((-0.0, 1.0), "u")
        assert minus is not plus
        assert to_sexpr(minus) == "(poly u -0.0 1.0)"
        two_int, two = Const(2), Const(2.0)
        assert two_int is not two
        assert type(two_int.value) is int and type(two.value) is float

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
    ], ids=["grid_time", "free", "freeze", "evaluate", "backward_taylor"])
    def test_leaves_no_reference_cycle(self, op):
        f = parse("exp(0.5*B(1))*B(0.5)^2+B(0.25)*B(0.75)")
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
