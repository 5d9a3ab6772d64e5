"""Backward Taylor engine against closed-form conditional expectations."""

import gc
import math
import weakref
from typing import get_args

import numpy as np
import pytest

from fbmseries import functional, taylor
from fbmseries.fbm import McConfig, simulate
from fbmseries.functional import (
    ONE,
    GridPath,
    TimeGrid,
    ZERO,
    collect_terms,
    evaluate,
    fbm_sample,
    make_exp,
    make_power,
    make_product,
    make_sum,
    nodes,
    scale,
    time_int_b,
)
from fbmseries.kernel import Interval, rect_integral
from fbmseries.parser import parse
from fbmseries.taylor import (
    DerivativeMemo,
    backward_taylor,
    psi_orders,
)

from oracles import (PsiSpec, assumption_a_sequence, compositions, iter_kernel_integral,
                     mc_sup_norm, psi, reference_expansion)

H_VALUES = [0.6, 0.8]


def _ensemble(times, h, n_paths=200, seed=11):
    grid = TimeGrid(times)
    return grid, simulate(grid, h, McConfig(n_paths=n_paths, seed=seed))


# ---------------------------------------------------------------------------
# combinatorics and psi operator


def test_compositions_count_and_sum():
    for total, parts in [(0, 1), (3, 1), (4, 2), (5, 3)]:
        combos = list(compositions(total, parts))
        assert len(combos) == math.comb(total + parts - 1, parts - 1)
        assert all(sum(q) == total for q in combos)
        assert len(set(combos)) == len(combos)
    assert list(compositions(0, 0)) == [()]
    assert list(compositions(2, 0)) == []


def test_collect_terms_merges_and_cancels():
    x = fbm_sample(1.0)
    assert collect_terms(make_sum([x, scale(x, -1.0)])) == ZERO
    assert collect_terms(make_sum([scale(x, 2.0), x])) == scale(x, 3.0)


def test_psi_annihilates_constants():
    for k in (1, 2, 3):
        assert iter_kernel_integral(ZERO, 0.2, 1.0, k, 0.7, 1.0) == ZERO


def test_psi_squared_sample_closed_form():
    h, r, t_final = 0.7, 0.3, 1.0
    f = make_power(fbm_sample(1.0), 2)
    a = rect_integral(Interval(0.0, 1.0), Interval(r, 1.0), h)
    grid = TimeGrid((0.0, 1.0))
    path = GridPath((0.0, 0.5, 1.0), np.array([0.0, 0.4, 1.3]))
    got1 = evaluate(psi(f, PsiSpec(r, 1.0, 1), grid, h), h=h, path=path)
    assert got1 == pytest.approx(2.0 * a * 1.3, rel=1e-13)
    got2 = evaluate(psi(f, PsiSpec(r, 1.0, 2), grid, h), h=h, path=path)
    assert got2 == pytest.approx(a ** 2, rel=1e-13)
    assert psi(f, PsiSpec(r, 1.0, 3), grid, h) == ZERO


def test_psi_orders_consistent_with_single_calls():
    h = 0.65
    f = make_product([make_power(fbm_sample(0.5), 2), fbm_sample(1.0)])
    path = GridPath((0.0, 0.5, 1.0), np.array([0.0, -0.7, 0.9]))
    all_orders = psi_orders(f, 0.25, 1.0, 3, h, 1.0)
    for k, expr in enumerate(all_orders):
        single = iter_kernel_integral(f, 0.25, 1.0, k, h, 1.0)
        a = evaluate(expr, h=h, path=path)
        b = evaluate(single, h=h, path=path)
        assert a == pytest.approx(b, rel=1e-14, abs=1e-14)


def test_psi_orders_leaves_no_reference_cycle():
    f = parse("exp(0.5*B(1))*B(0.5)^2")
    gc.collect()
    gc.disable()
    try:
        psi_orders(f, 0.0, 0.5, 6, 0.7, 1.0)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _memo_case():
    """exp(0.5 B_1) on four cells at r = 0.3: the grid-time derivative
    chains of its segments and of every psi_k overlap."""
    h = 0.7
    grid = TimeGrid((0.0, 0.25, 0.5, 0.75, 1.0))
    ens = simulate(TimeGrid((0.0, 0.25, 0.3, 0.5, 0.75, 1.0)), h,
                   McConfig(n_paths=100, seed=7))
    return parse("exp(0.5*B(1))"), grid, h, ens.as_grid_path()


def test_backward_taylor_differentiates_each_node_once_per_time(monkeypatch):
    # a memo per directional call ran the rule 72.9k times here
    f, grid, h, path = _memo_case()
    calls = []

    def counting(real):
        def counted(node, operands, at):
            calls.append((id(node), at))
            return real(node, operands, at)
        return counted

    for kind in get_args(functional.Expr):
        monkeypatch.setattr(kind, "derivative", counting(kind.derivative))
    backward_taylor(f, 0.3, grid, 8, h, path=path)
    assert len(calls) == len(set(calls)) <= 10_000


def _count_constructions(monkeypatch) -> list:
    """The kinds of every node construction (intern lookups included) from now on."""
    calls, real = [], functional._Node.__new__

    def counted(cls, *args):
        calls.append(cls)
        return real(cls, *args)

    monkeypatch.setattr(functional._Node, "__new__", counted)
    return calls


def test_backward_taylor_constructs_few_throwaway_nodes(monkeypatch):
    # 70.3k constructions when collect_terms rebuilt every term it kept and
    # keyed its buckets by interned products; 19.7k since
    f, grid, h, _ = _memo_case()
    calls = _count_constructions(monkeypatch)
    backward_taylor(f, 0.3, grid, 8, h)
    assert len(calls) <= 19_676 * 1.05


def test_collect_terms_keeps_a_collected_sum(monkeypatch):
    x, y = fbm_sample(0.5), fbm_sample(1.0)
    xy = make_product([x, y])
    s = collect_terms(make_sum([scale(x, 2.0), xy, functional.Const(1.5),
                                scale(xy, 3.0), y]))
    assert s == make_sum([scale(x, 2.0), scale(xy, 4.0), y, functional.Const(1.5)])
    calls = _count_constructions(monkeypatch)
    assert collect_terms(s) is s
    assert calls == []


def test_backward_taylor_leaves_no_reference_cycle():
    f, grid, h, path = _memo_case()
    gc.collect()
    gc.disable()
    try:
        backward_taylor(f, 0.3, grid, 6, h, path=path)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_derivative_memo_dies_with_the_call(monkeypatch):
    f, grid, h, path = _memo_case()
    probes = []

    class Probed(DerivativeMemo):
        def __call__(self, expr, at):
            d = super().__call__(expr, at)
            probes.append(weakref.ref(d))
            return d

    monkeypatch.setattr(taylor, "DerivativeMemo", Probed)
    backward_taylor(f, 0.3, grid, 6, h, path=path)
    assert len(probes) > 100
    alive = {p() for p in probes} - {None, ZERO, ONE}
    assert alive <= set(nodes(f))


def test_derivative_memo_matches_fresh_derivatives():
    derive = DerivativeMemo()
    f = parse("exp(0.5*B(1))*B(0.5)^2")
    d = f
    for at in (1.0, 0.5, 0.5, 1.0):
        want = collect_terms(functional.directional(d, at))
        assert derive(d, at) is want
        assert derive(d, at) is want
        d = want


def test_psi_invariant_under_partition_refinement():
    # padding with a sample that cancels refines the internal partition but
    # must not change the value: the rectangle integrals are additive
    h = 0.75
    f = make_power(fbm_sample(1.0), 2)
    padded = make_sum([f, make_product([fbm_sample(0.3), fbm_sample(0.7)]),
                       scale(make_product([fbm_sample(0.3), fbm_sample(0.7)]), -1.0)])
    path = GridPath((0.0, 0.3, 0.7, 1.0), np.array([0.0, 0.2, -0.5, 1.1]))
    for k in (1, 2):
        a = evaluate(iter_kernel_integral(f, 0.4, 1.0, k, h, 1.0), h=h, path=path)
        b = evaluate(iter_kernel_integral(padded, 0.4, 1.0, k, h, 1.0), h=h, path=path)
        assert b == pytest.approx(a, rel=1e-13, abs=1e-13)


def test_psi_validation():
    grid = TimeGrid((0.0, 1.0))
    with pytest.raises(ValueError):
        psi(time_int_b((0.0,), 1.0), PsiSpec(0.2, 1.0, 1), grid, 0.7)
    with pytest.raises(ValueError):
        psi(fbm_sample(0.37), PsiSpec(0.2, 1.0, 1), grid, 0.7)
    with pytest.raises(ValueError):
        PsiSpec(0.5, 0.4, 1)
    with pytest.raises(ValueError):
        PsiSpec(0.1, 1.0, -1)
    assert psi(fbm_sample(1.0), PsiSpec(0.2, 1.0, 0), grid, 0.7) == fbm_sample(1.0)


def test_locate_segment_matches_grid():
    grid = TimeGrid((0.0, 0.25, 1.0))
    assert grid.locate(0.0) == 1
    assert grid.locate(0.25) == 1
    assert grid.locate(0.3) == 2


# ---------------------------------------------------------------------------
# exactness on terminating series


@pytest.mark.parametrize("h", H_VALUES)
@pytest.mark.parametrize("r", [0.0, 0.25, 0.5, 1.0])
def test_terminal_sample_projects_to_conditioning_time(h, r):
    grid, ens = _ensemble((0.0, 0.5, 1.0), h)
    sim_grid, sim_ens = _ensemble((0.0, 0.25, 0.5, 1.0), h)
    path = sim_ens.as_grid_path()
    res = backward_taylor(fbm_sample(1.0), r, grid, 3, h, path=path)
    want = 0.0 if r == 0.0 else path.value(r)
    assert np.max(np.abs(res.value - want)) < 1e-12
    # everything beyond the first-order correction vanishes identically
    for term in res.terms[2:]:
        assert np.max(np.abs(np.atleast_1d(term))) == 0.0


@pytest.mark.parametrize("h", H_VALUES)
def test_cubic_two_time_closed_forms(h):
    # F = (B_t)^2 B_T; conditioning before t and between t and T hit the two
    # closed-form branches, and the series terminates by order 3
    t, big_t = 0.5, 1.0
    grid = TimeGrid((0.0, t, big_t))
    sim_grid, ens = _ensemble((0.0, 0.25, t, 0.75, big_t), h, n_paths=300, seed=5)
    path = ens.as_grid_path()
    f = make_product([make_power(fbm_sample(t), 2), fbm_sample(big_t)])
    for r in (0.0, 0.25, 0.5):
        res = backward_taylor(f, r, grid, 4, h, path=path)
        br = 0.0 if r == 0.0 else path.value(r)
        want = br ** 3 + br * (big_t ** (2 * h) + 2 * t ** (2 * h)
                               - 3 * r ** (2 * h) - (big_t - t) ** (2 * h))
        assert np.max(np.abs(res.value - want)) < 1e-10
    for r in (0.75, 1.0):
        res = backward_taylor(f, r, grid, 4, h, path=path)
        br, bt = path.value(r), path.value(t)
        want = br * bt ** 2 + bt * (big_t ** (2 * h) - r ** (2 * h)
                                    - (big_t - t) ** (2 * h) + (r - t) ** (2 * h))
        assert np.max(np.abs(res.value - want)) < 1e-10


def test_polynomial_identity_on_arbitrary_path_values():
    # terminating series equal their closed forms as polynomial identities,
    # so equality must hold even for path values no fBm would produce
    h, t, big_t, r = 0.7, 0.5, 1.0, 0.25
    grid = TimeGrid((0.0, t, big_t))
    f = make_product([make_power(fbm_sample(t), 2), fbm_sample(big_t)])
    path = GridPath((0.0, r, t, big_t), np.array([0.0, 17.0, -3.0, 100.0]))
    res = backward_taylor(f, r, grid, 4, h, path=path)
    br = 17.0
    want = br ** 3 + br * (big_t ** (2 * h) + 2 * t ** (2 * h)
                           - 3 * r ** (2 * h) - (big_t - t) ** (2 * h))
    assert res.value == pytest.approx(want, rel=1e-12)


def test_value_ignores_path_beyond_conditioning_time():
    h, r = 0.7, 0.5
    grid = TimeGrid((0.0, 0.5, 1.0))
    f = make_product([make_power(fbm_sample(0.5), 2), fbm_sample(1.0)])
    base = np.array([0.0, 0.8, -0.6])
    bumped = base.copy()
    bumped[2] += 3.7
    va = backward_taylor(f, r, grid, 4, h,
                         path=GridPath(grid.times, base)).value
    vb = backward_taylor(f, r, grid, 4, h,
                         path=GridPath(grid.times, bumped)).value
    assert va == pytest.approx(vb, rel=1e-12)


def test_conditioning_at_horizon_returns_functional():
    h = 0.6
    grid, ens = _ensemble((0.0, 0.5, 1.0), h)
    path = ens.as_grid_path()
    f = make_exp(scale(fbm_sample(1.0), 0.5))
    res = backward_taylor(f, 1.0, grid, 5, h, path=path)
    assert np.max(np.abs(res.value - evaluate(f, h=h, path=path))) == 0.0
    for term in res.terms[1:]:
        assert np.max(np.abs(np.atleast_1d(term))) == 0.0


# ---------------------------------------------------------------------------
# exponential functional: geometric-type convergence to the closed form


@pytest.mark.parametrize("h", H_VALUES)
@pytest.mark.parametrize("r", [0.0, 0.4])
def test_exponential_closed_form(h, r):
    sigma, big_t = 0.5, 1.0
    grid = TimeGrid((0.0, big_t))
    sim_grid, ens = _ensemble((0.0, 0.4, big_t), h, n_paths=300, seed=3)
    path = ens.as_grid_path()
    f = make_exp(scale(fbm_sample(big_t), sigma))
    res = backward_taylor(f, r, grid, 30, h, path=path)
    br = 0.0 if r == 0.0 else path.value(r)
    want = np.exp(sigma * br + sigma ** 2
                  * (big_t ** (2 * h) - r ** (2 * h)) / 2.0)
    rel = np.max(np.abs(res.value - want) / np.abs(want))
    assert rel < 1e-10
    assert np.max(np.abs(res.terms[-1])) < 1e-10


def test_partial_sums_and_diagnostics_shape():
    h = 0.7
    grid = TimeGrid((0.0, 1.0))
    sim_grid, ens = _ensemble((0.0, 0.4, 1.0), h, n_paths=50)
    f = make_exp(scale(fbm_sample(1.0), 0.5))
    res = backward_taylor(f, 0.4, grid, 6, h, path=ens.as_grid_path())
    assert len(res.terms) == 7 and len(res.partial_sums) == 7
    assert [d["order"] for d in res.diagnostics] == list(range(7))
    assert all(d["n_terms"] >= 1 for d in res.diagnostics)
    acc = res.terms[0]
    for term, ps in zip(res.terms[1:], res.partial_sums[1:]):
        acc = acc + term
        assert np.allclose(acc, ps, rtol=0, atol=0)


# ---------------------------------------------------------------------------
# layered accumulation against the literal enumeration


@pytest.mark.parametrize("r", [0.0, 0.3, 0.5])
def test_layered_engine_matches_enumeration(r):
    h = 0.75
    grid, ens = _ensemble((0.0, 0.5, 1.0), h, n_paths=100, seed=9)
    sim_grid, sim_ens = _ensemble((0.0, 0.3, 0.5, 1.0), h, n_paths=100, seed=9)
    path = sim_ens.as_grid_path()
    f = make_product([make_exp(scale(fbm_sample(1.0), 0.4)), fbm_sample(0.5)])
    fast = backward_taylor(f, r, grid, 5, h, path=path)
    slow = reference_expansion(f, r, grid, 5, h, path=path)
    for a, b in zip(fast.terms, slow.terms):
        assert np.max(np.abs(np.atleast_1d(a - b))) < 1e-12


def test_symbolic_mode_matches_numeric_mode():
    h, r = 0.65, 0.25
    grid = TimeGrid((0.0, 0.5, 1.0))
    f = make_product([make_power(fbm_sample(0.5), 2), fbm_sample(1.0)])
    path = GridPath((0.0, 0.25, 0.5, 1.0), np.array([0.0, 0.3, -0.2, 0.9]))
    sym = backward_taylor(f, r, grid, 3, h)
    num = backward_taylor(f, r, grid, 3, h, path=path)
    got = evaluate(sym.value, h=h, path=path)
    assert got == pytest.approx(num.value, rel=1e-13)


def test_tower_property_on_terminating_series():
    h, r, s = 0.7, 0.5, 0.25
    grid = TimeGrid((0.0, 0.5, 1.0))
    f = make_power(fbm_sample(1.0), 2)
    inner = backward_taylor(f, r, grid, 2, h).value
    towered = backward_taylor(inner, s, grid, 2, h)
    direct = backward_taylor(f, s, grid, 2, h)
    path = GridPath((0.0, 0.25, 0.5, 1.0), np.array([0.0, -1.4, 2.2, 0.3]))
    a = evaluate(towered.value, h=h, path=path)
    b = evaluate(direct.value, h=h, path=path)
    want = (-1.4) ** 2 + 1.0 - s ** (2 * h)
    assert a == pytest.approx(b, rel=1e-12)
    assert a == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# validation and convergence bound


def test_backward_taylor_validation():
    grid = TimeGrid((0.0, 1.0))
    with pytest.raises(ValueError):
        backward_taylor(fbm_sample(1.0), 0.5, grid, -1, 0.7)
    with pytest.raises(ValueError):
        backward_taylor(time_int_b((0.0,), 1.0), 0.5, grid, 2, 0.7)
    with pytest.raises(ValueError):
        backward_taylor(fbm_sample(0.9), 0.5, grid, 2, 0.7)
    with pytest.raises(ValueError):
        backward_taylor(fbm_sample(1.0), 1.5, grid, 2, 0.7)


@pytest.mark.parametrize("h", H_VALUES)
def test_assumption_bound_decays_for_exponential(h):
    sigma, big_t, r = 0.5, 1.0, 0.5
    grid = TimeGrid((0.0, big_t))
    f = make_exp(scale(fbm_sample(big_t), sigma))
    l2 = math.exp(sigma ** 2 * big_t ** (2 * h))
    seq = assumption_a_sequence(f, r, grid, 14, h,
                                sup_norm=lambda m: sigma ** m * l2)
    assert all(v > 0 for v in seq)
    assert seq[14] < 1e-6 * max(seq)
    assert seq[14] < seq[10] < seq[6]


def test_mc_sup_norm_matches_analytic_for_exponential():
    h, sigma = 0.7, 0.5
    grid, ens = _ensemble((0.0, 1.0), h, n_paths=4000, seed=21)
    f = make_exp(scale(fbm_sample(1.0), sigma))
    norm = mc_sup_norm(f, grid, h, ens)
    for m in (0, 1, 2, 3):
        want = sigma ** m * math.exp(sigma ** 2)
        assert norm(m) == pytest.approx(want, rel=0.2)
