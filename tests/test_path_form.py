"""The path form of a time integral from a bound limit, and its kernel moment.

On one grid path the trapezoid rule makes u -> int_{max(floor, u)}^upper B ds
a polynomial of degree 2 in u on each grid cell (TimeIntB.pieces), so the
kernel integral of that factor over u is a closed-form kernel moment.  These
tests check it against the singularity-absorbing adaptive quadrature of the
pointwise integrand, split at every grid time and at the floor, and on a
one-cell path against phi_poly_moment of the hand-written quadratic.
"""

import numpy as np
import pytest

from fbmseries.functional import (
    EvalError,
    GridPath,
    PhiMoment,
    TimeGrid,
    TimeIntB,
    UnsupportedNodeError,
    evaluate,
    fbm_sample,
)
from fbmseries.kernel import Interval, PiecewisePoly, phi_poly_moment
from fbmseries.quadrature import phi_weighted_integral

R, T = 0.3, 1.0
PATHS = {
    "3-cell": (0.0, 0.1, R, T),
    "64-cell": TimeGrid((0.0, R, T)).refine(32).times,
}
# from the upper limit R of the integral's support out to T
PARTNERS = (R, 0.31, 0.5, 0.95, T)


def grid_path(times, seed=4):
    rng = np.random.default_rng(seed)
    vals = np.cumsum(rng.normal(0.0, 0.3, size=len(times)))
    vals[0] = 0.0
    return GridPath(times, vals)


@pytest.mark.parametrize("h", [0.55, 0.7, 0.9])
@pytest.mark.parametrize("hi", [T, R], ids=["to-T", "to-r"])
@pytest.mark.parametrize("floor", ["grid", "bound"])
@pytest.mark.parametrize("cells", sorted(PATHS))
def test_moment_matches_adaptive_quadrature(cells, floor, hi, h):
    times = PATHS[cells]
    path = grid_path(times)
    if floor == "grid":  # a constant lower limit at the first grid time after 0
        node, bindings, at = TimeIntB((times[1], "u"), R, 1), {}, times[1]
    else:  # a bound lower limit between grid times
        node, bindings, at = TimeIntB((0.0, "u", "w"), R, 1), {"w": 0.17}, 0.17
    moment = PhiMoment((node,), "u", 0.0, hi, "v")

    def integrand(us):
        return evaluate(node, h, path, {**bindings, "u": us})

    for v in PARTNERS:
        got = evaluate(moment, h, path, {**bindings, "v": v})
        want = phi_weighted_integral(integrand, 0.0, hi, v, h,
                                     breaks=sorted({*times, at}), rel_tol=1e-12)
        assert abs(got - want) <= 1e-10 * abs(want), v


@pytest.mark.parametrize("h", [0.55, 0.7, 0.9])
def test_one_cell_moment_is_the_hand_written_quadratic(h):
    # on [0, t1] the integral from u is 0.5 (L(u) + y1)(t1 - u), with
    # L(u) = y0 + (y1 - y0) u / t1 the path's linear interpolant
    t1, y0, y1 = 0.8, 0.3, -0.45
    path = GridPath((0.0, t1), (y0, y1))
    slope = (y1 - y0) / t1
    quad = (0.5 * (y0 + y1) * t1, 0.5 * (slope * t1 - y0 - y1), -0.5 * slope)
    node = PhiMoment((TimeIntB((0.0, "u"), t1, 1),), "u", 0.0, T, "v")
    for v in (0.2, t1, 0.95):
        want = phi_poly_moment(PiecewisePoly.from_poly(quad, 0.0, t1),
                               Interval(0.0, T), v, h)
        assert evaluate(node, h, path, {"v": v}) == pytest.approx(want, rel=1e-14, abs=0)


@pytest.mark.parametrize("factors", [
    (TimeIntB((0.0, "u"), R, 1), TimeIntB((0.1, "u"), T, 1)),
    (TimeIntB((0.0, "u"), R, 2),),
    (TimeIntB((0.0, "u"), R, 1), fbm_sample(R)),
], ids=["two-path-factors", "power-2", "path-factor-constant-in-u"])
def test_other_path_reading_factors_are_refused(factors):
    node = PhiMoment(factors, "u", 0.0, T, "v")
    with pytest.raises(UnsupportedNodeError, match="IB"):
        evaluate(node, 0.7, grid_path(PATHS["3-cell"]), {"v": 0.5})


def test_an_ensemble_is_refused():
    times = PATHS["3-cell"]
    ensemble = GridPath(times, np.stack([grid_path(times, s).values for s in range(3)]))
    node = PhiMoment((TimeIntB((0.0, "u"), R, 1),), "u", 0.0, T, "v")
    for v in (0.5, np.array([0.4, 0.6])):
        with pytest.raises(EvalError):
            evaluate(node, 0.7, ensemble, {"v": v})
