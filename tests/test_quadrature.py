"""Panel quadrature: breakpoints, the singular kernel weight, simplex integrals."""

import math

import numpy as np
import pytest

from fbmseries.kernel import phi_antiderivative
from fbmseries.quadrature import (PanelGrid, QuadratureError, adaptive_panels,
                                  graded_cuts, graded_points,
                                  phi_weighted_integral, simplex_product)


def test_adaptive_panels_splits_at_a_kink():
    # |x - 0.3| on [0, 1]: 0.3^2 / 2 + 0.7^2 / 2
    got = adaptive_panels(lambda xs: np.abs(np.asarray(xs) - 0.3), 0.0, 1.0,
                          breaks=(0.3,))
    assert got == pytest.approx(0.29, rel=1e-13)


@pytest.mark.parametrize("v", [0.0, 0.4, 0.9, 1.3])
def test_phi_weighted_unit_integrand_is_the_antiderivative(v):
    h = 0.7
    got = phi_weighted_integral(lambda us: np.ones_like(np.asarray(us)),
                                0.1, 0.9, v, h)
    assert got == pytest.approx(phi_antiderivative(0.1, 0.9, v, h), rel=1e-10)


@pytest.mark.parametrize("toward_start", [True, False])
def test_graded_points_keep_endpoints_and_increase(toward_start):
    pts = graded_points(0.25, 1.0, 6, ratio=0.15, toward_start=toward_start)
    assert pts[0] == 0.25 and pts[-1] == 1.0
    assert len(pts) == 7
    assert all(a < b for a, b in zip(pts, pts[1:]))


@pytest.mark.parametrize("ratio", [0.0, -0.5, 1.0, 2.0])
def test_graded_points_reject_a_ratio_outside_the_unit_interval(ratio):
    # a ratio of 2 would put cuts outside [a, b], 0 would give one panel
    with pytest.raises(ValueError, match="ratio"):
        graded_points(0.0, 1.0, 3, ratio=ratio)


def test_adaptive_panels_evaluate_an_unsplit_interval_once():
    # a cubic is exact on the first panel: the whole interval once, then
    # its two halves for the refinement check
    calls = []

    def f(xs):
        calls.append(len(xs))
        return np.asarray(xs) ** 3

    assert adaptive_panels(f, 0.0, 2.0, n=8) == pytest.approx(4.0, rel=1e-14)
    assert calls == [8, 8, 8]


def test_panel_grid_integral_carries_leading_axes():
    grid = PanelGrid(graded_cuts([0.0, 0.4, 1.0], 2, 0.25), 6)
    rows = np.stack([np.cos(k * grid.nodes) for k in range(4)])
    got = grid.integral(rows.reshape(2, 2, *grid.nodes.shape))
    assert got.shape == (2, 2)
    rows = [grid.integral(f) for f in rows]
    np.testing.assert_allclose(got.ravel(), rows, rtol=1e-14, atol=1e-16)
    assert rows[2] == pytest.approx(math.sin(2.0) / 2.0, rel=1e-13)


@pytest.mark.parametrize("dim", [2, 3, 5])
def test_simplex_product_of_exponentials(dim):
    # the running integral of e^v from r is e^v - e^r, and the product of
    # e^(v_k) over the ordered simplex is (e^T - e^r)^dim / dim!
    r, t = 0.2, 1.5
    grid = PanelGrid(graded_cuts([r, 0.6, t], 3, 0.25), 12)
    g = np.exp(grid.nodes)
    first = grid.running(g)
    np.testing.assert_allclose(first, g - math.exp(r), rtol=1e-14, atol=1e-15)
    got = simplex_product(first, [g] * (dim - 1), grid)
    want = (math.exp(t) - math.exp(r)) ** dim / math.factorial(dim)
    assert got == pytest.approx(want, rel=1e-13)


def test_adaptive_panels_raise_where_the_depth_runs_out():
    # a jump that is not a breakpoint cannot be resolved by bisection: the
    # result is refused, never returned as a best effort
    def step(xs):
        return (np.asarray(xs) > 1.0 / 3.0).astype(float)

    with pytest.raises(QuadratureError) as err:
        adaptive_panels(step, 0.0, 1.0, rel_tol=1e-10, max_depth=6)
    assert err.value.achieved > 1e-10
    got = adaptive_panels(step, 0.0, 1.0, breaks=[1.0 / 3.0], rel_tol=1e-10, max_depth=6)
    assert got == pytest.approx(2.0 / 3.0, rel=1e-14)
