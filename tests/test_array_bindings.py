"""Array bindings through evaluate: every step equals the per-element scalar loop.

A numpy array bound to a free variable makes each evaluation step work
elementwise, and a kernel moment (phi_moment) takes a whole batch of
partners and bindings in one call.  These tests bind arrays, evaluate or
take the moment once, and compare with one scalar call per element:
exactly where the two run the same float operations, to rtol 1e-14 where
the array step sums in another order (time integrals from a bound limit)
or cuts a kernel moment at every breakpoint of the batch.
"""

import numpy as np
import pytest

from fbmseries.functional import (
    EvalError,
    GridPath,
    OffGridTimeError,
    Piecewise,
    RampMax,
    TimeIntB,
    evaluate,
    fbm_sample,
    make_product,
    phi_moment,
    ramp_max,
)

from oracles import indicator, poly_in_var

H = 0.7
TIMES = tuple(k / 8 for k in range(9))


def single_path(times=TIMES, seed=1):
    rng = np.random.default_rng(seed)
    vals = np.cumsum(rng.normal(0.0, 0.3, size=len(times)))
    vals[0] = 0.0
    return GridPath(times, vals)


def scalar_loop(value, bindings):
    """value(bindings) once per element of the array bindings, each scalar."""
    shape = next(np.shape(b) for b in bindings.values() if np.ndim(b))
    out = np.empty(shape)
    for i in np.ndindex(shape):
        out[i] = value({k: float(b[i]) if np.ndim(b) else b
                        for k, b in bindings.items()})
    return out


def check(expr, bindings, path=None, exact=True):
    agree(lambda b: evaluate(expr, H, path, b), bindings, exact)


def moment(factors, hi, path=None):
    """The kernel moment over u in [0, hi] of the factors, against the
    partner bound to v, as a function of the bindings."""
    return lambda b: phi_moment(factors, "u", 0.0, hi, b["v"], H, path, b)


def agree(value, bindings, exact=True):
    """value(bindings) on the array bindings against the scalar loop."""
    got = value(bindings)
    want = scalar_loop(value, bindings)
    assert got.shape == want.shape
    if exact:
        assert np.array_equal(got, want)
    else:
        assert np.allclose(got, want, rtol=1e-14, atol=1e-15)


# limits of the leaves below, just inside and outside them, and points between
GRID_VALUES = np.array([0.0, 0.1, 0.125, 0.2, 0.25, 0.3, 0.4999999, 0.5, 0.6,
                        0.75, 0.7500001, 0.8, 0.9, 1.0])


class TestLeaves:
    def test_ramp_whose_floor_reaches_its_cap(self):
        # floors below, at and above the cap 0.6 (the ramp is 0 from the cap on)
        u, w = np.meshgrid(GRID_VALUES, GRID_VALUES)
        check(RampMax(0.6, (0.1, "u", "w")), {"u": u, "w": w})

    @pytest.mark.parametrize("args", [(0.3, "u"), (0.0, "u"), ("u",)],
                             ids=["c=0.3", "c=0", "no constant"])
    def test_one_variable_ramp_is_its_formula(self, args):
        # a Piecewise from 0, bit for bit max(0, cap - max(c, u)) for u in
        # [0, 1]: at u = c, at the cap 0.6 and above it, scalar and array
        ramp = ramp_max(0.6, args)
        assert isinstance(ramp, Piecewise)
        consts = [a for a in args if not isinstance(a, str)]
        want = np.array([max(0.0, 0.6 - max(consts + [u])) for u in GRID_VALUES.tolist()])
        scalars = [evaluate(ramp, H, None, {"u": u}) for u in GRID_VALUES.tolist()]
        assert all(type(x) is float for x in scalars)
        assert np.array(scalars).tobytes() == want.tobytes()
        assert evaluate(ramp, H, None, {"u": GRID_VALUES}).tobytes() == want.tobytes()

    def test_indicator_endpoints(self):
        check(indicator("u", 0.25, 0.75), {"u": GRID_VALUES})

    def test_polynomial_in_a_variable(self):
        check(poly_in_var((0.5, -1.0, 3.0, 0.25), "u"), {"u": GRID_VALUES})

    def test_mixed_product_on_a_path(self):
        expr = make_product([RampMax(1.0, (0.0, "v", "w")), indicator("w", 0.2, 0.9),
                             poly_in_var((0.5, -1.0), "v"), fbm_sample(0.5)])
        v, w = np.meshgrid(GRID_VALUES, GRID_VALUES[::-1])
        check(expr, {"v": v, "w": w}, single_path())

    def test_time_integral_from_a_bound_lower_limit(self):
        # limits on grid times, between them, at the upper limit and above it;
        # both powers on one path, whose cached tails must not mix them up
        path = single_path()
        for power in (1, 2):
            for upper in (0.125, 0.5, 0.75, 1.0):
                check(TimeIntB((0.0, "u"), upper, power), {"u": GRID_VALUES}, path,
                      exact=False)
            assert evaluate(TimeIntB((0.0, "u"), 0.75, power), H, path,
                            {"u": np.array([0.75, 0.8, 1.0])}).tolist() == [0.0] * 3

    def test_time_integral_keeps_a_constant_limit_strict(self):
        # the constant 0.1 is off the grid: an error once it is the lower
        # limit of an element, as for the scalar step, and fine otherwise
        node = TimeIntB((0.1, "u"), 0.75, 1)
        path = single_path()
        check(node, {"u": np.array([0.2, 0.3, 0.9])}, path, exact=False)
        with pytest.raises(OffGridTimeError):
            evaluate(node, H, path, {"u": np.array([0.05, 0.3])})
        with pytest.raises(OffGridTimeError):
            evaluate(node, H, path, {"u": 0.05})


class TestKernelMoments:
    # breakpoints of the ramp move with the bound partner v or with w; the
    # pieces left of a floor below the range, or right of one above the
    # cap, are empty
    def test_breakpoints_from_the_bound_partner(self):
        agree(moment((RampMax(1.0, (0.0, "u", "v")),), 1.0), {"v": GRID_VALUES[1:]},
              exact=False)

    def test_times_an_indicator_of_the_partner(self):
        mom = moment((RampMax(1.0, (0.0, "u", "v")),), 1.0)
        agree(lambda b: evaluate(indicator("v", 0.2, 0.7), H, None, b) * mom(b),
              {"v": GRID_VALUES[1:]}, exact=False)

    def test_zero_length_pieces_and_floors_above_the_cap(self):
        mom = moment((indicator("u", 0.1, 0.5), RampMax(0.8, (0.3, "u", "w")),
                      poly_in_var((1.0, 2.0), "u")), 0.6)
        v, w = np.meshgrid(GRID_VALUES[1:], GRID_VALUES)
        agree(mom, {"v": v, "w": w}, exact=False)

    def test_factor_constant_in_the_integration_variable(self):
        mom = moment((ramp_max(0.9, (0.0, "w")), indicator("u", 0.0, 0.4)), 1.0)
        agree(mom, {"v": GRID_VALUES[1:], "w": GRID_VALUES[::-1][:-1]}, exact=False)

    def test_scalar_partner_with_an_array_floor(self):
        agree(moment((RampMax(1.0, (0.2, "u", "w")),), 1.0), {"v": 0.4, "w": GRID_VALUES},
              exact=False)

    def test_residual_integral_loops_over_the_partners(self):
        # a time integral from u, piecewise polynomial in u on one path: the
        # moments of all partners at once, each the scalar one
        agree(moment((TimeIntB((0.0, "u"), 0.5, 1),), 1.0, single_path()),
              {"v": np.array([0.2, 0.5, 0.9])})


class TestShapes:
    def test_value_takes_the_shape_of_the_bindings(self):
        got = evaluate(make_product([indicator("u", 0.0, 2.0), fbm_sample(0.5)]), H,
                       single_path(), {"u": np.zeros((2, 3))})
        assert got.shape == (2, 3)
        got = evaluate([indicator("u", 0.0, 1.0)], H, None, {"u": np.zeros(4)})
        assert got[0].shape == (4,)

    def test_bindings_of_different_shapes_are_refused(self):
        with pytest.raises(EvalError):
            evaluate(RampMax(1.0, ("u", "w")), H, None,
                     {"u": np.zeros(3), "w": np.zeros(4)})

    def test_ensemble_never_broadcasts_against_the_bindings(self):
        # 24 paths against 24 nodes would broadcast without a word
        ensemble = GridPath(TIMES, np.random.default_rng(2).normal(size=(24, len(TIMES))))
        nodes = np.linspace(0.0, 1.0, 24)
        for node in (make_product([indicator("u", 0.0, 0.5), fbm_sample(0.5)]),
                     TimeIntB((0.0, "u"), 1.0, 1)):
            with pytest.raises(EvalError, match="single path"):
                evaluate(node, H, ensemble, {"u": nodes})
            assert evaluate(node, H, ensemble, {"u": 0.25}).shape == (24,)
        # a node that does not read the path evaluates as without one
        ramp = ramp_max(1.0, (0.0, "u"))
        assert np.array_equal(evaluate(ramp, H, ensemble, {"u": nodes}),
                              evaluate(ramp, H, None, {"u": nodes}))
