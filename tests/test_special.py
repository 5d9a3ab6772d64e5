"""Hermite / Stirling / beta invariants, partly against brute-force oracles."""

import math

import numpy as np
import pytest
from scipy import special as sps

from fbmseries.special import (
    beta_fn,
    hermite_eval,
    stirling2,
    stirling_falling_sum,
)

from oracles import (hermite_coefficients, hermite_generating_check,
                     hermite_shift_identity_gap)


class TestHermite:
    def test_first_rows_exact(self):
        assert hermite_coefficients(0) == (1,)
        assert hermite_coefficients(1) == (0, 1)
        assert hermite_coefficients(2) == (-1, 0, 1)
        assert hermite_coefficients(3) == (0, -3, 0, 1)
        assert hermite_coefficients(4) == (3, 0, -6, 0, 1)

    def test_recurrence_rows_exact(self):
        # x*h_{n-1} - (n-1)h_{n-2} reproduces each stored row, in exact ints
        for n in range(2, 21):
            a = hermite_coefficients(n - 1)
            b = hermite_coefficients(n - 2)
            shifted = (0,) + a
            combined = tuple(s - (n - 1) * (b[i] if i < len(b) else 0)
                             for i, s in enumerate(shifted))
            assert combined == hermite_coefficients(n)

    def test_eval_matches_coefficients(self):
        rng = np.random.default_rng(3)
        for n in range(0, 15):
            c = hermite_coefficients(n)
            for x in rng.uniform(-2.5, 2.5, size=5):
                direct = sum(ci * x ** i for i, ci in enumerate(c))
                assert hermite_eval(n, x) == pytest.approx(direct, rel=1e-10, abs=1e-10)

    def test_eval_vectorized(self):
        x = np.array([-1.0, 0.0, 2.0])
        np.testing.assert_allclose(hermite_eval(2, x), x * x - 1.0)

    def test_generating_function_decay(self):
        # the partial-sum gap must decay as the truncation order grows
        for t, x in [(0.4, 0.9), (-0.7, 1.3), (0.9, -0.5)]:
            gaps = [hermite_generating_check(t, x, n) for n in (2, 6, 12, 20)]
            assert gaps[-1] < 1e-11
            assert gaps[0] > gaps[-1]

    def test_shift_identity(self):
        rng = np.random.default_rng(11)
        for l in range(0, 21):
            x, y = rng.uniform(-1.5, 1.5, size=2)
            scale = max(1.0, abs(hermite_eval(l, x + y)))
            assert hermite_shift_identity_gap(l, x, y) / scale < 1e-9

    def test_orthogonality_gauss_hermite(self):
        # E[h_m(Z) h_n(Z)] = n! delta_{mn} for standard normal Z
        nodes, weights = np.polynomial.hermite_e.hermegauss(60)
        weights = weights / math.sqrt(2.0 * math.pi)
        for m in range(6):
            for n in range(6):
                val = float(np.sum(weights * hermite_eval(m, nodes) * hermite_eval(n, nodes)))
                want = math.factorial(n) if m == n else 0.0
                assert val == pytest.approx(want, abs=1e-8)

    def test_negative_degree_raises(self):
        with pytest.raises(ValueError):
            hermite_eval(-1, 0.0)


def brute_force_stirling(j, k):
    """Count partitions of {0..j-1} into exactly k nonempty blocks directly.

    Each partition is listed once, as its restricted-growth string: element
    i goes to block a_i, where a_0 = 0 and a_i is at most one above every
    earlier label, so the blocks are numbered in order of first use.
    """
    count = 0

    def grow(length, n_blocks):
        nonlocal count
        if length == j:
            count += n_blocks == k
            return
        for label in range(n_blocks + 1):
            grow(length + 1, max(n_blocks, label + 1))

    grow(0, 0)
    return count


class TestStirling:
    def test_against_brute_force(self):
        for j in range(0, 9):
            for k in range(0, j + 1):
                assert stirling2(j, k) == brute_force_stirling(j, k)

    def test_boundary_cases(self):
        assert stirling2(0, 0) == 1
        assert stirling2(5, 0) == 0
        assert stirling2(7, 1) == 1
        assert stirling2(7, 7) == 1
        assert stirling2(3, 5) == 0

    def test_recurrence_exact(self):
        for j in range(1, 30):
            for k in range(1, j + 1):
                assert stirling2(j, k) == k * stirling2(j - 1, k) + stirling2(j - 1, k - 1)

    def test_falling_sum_power_identity(self):
        for p in range(0, 7):
            for n in range(0, 7):
                assert stirling_falling_sum(p, n) == p ** (2 * n)

    def test_large_values_stay_exact(self):
        # sanity: {30, 15} is astronomically large yet still an exact int
        v = stirling2(30, 15)
        assert isinstance(v, int)
        assert v == sps.stirling2(30, 15, exact=True)


class TestBeta:
    def test_matches_scipy(self):
        for x, y in [(0.5, 1.5), (2.2, 2.4), (2.5, 3.5), (1.0, 1.0)]:
            assert beta_fn(x, y) == pytest.approx(float(sps.beta(x, y)), rel=1e-13)

    def test_symmetry_and_identity(self):
        assert beta_fn(2.3, 1.1) == pytest.approx(beta_fn(1.1, 2.3), rel=1e-14)
        assert beta_fn(1.0, 5.0) == pytest.approx(0.2, rel=1e-13)

    def test_domain(self):
        with pytest.raises(ValueError):
            beta_fn(0.0, 1.0)
        with pytest.raises(ValueError):
            beta_fn(1.0, -2.0)
