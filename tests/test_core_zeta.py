"""Unit tests for repro.core.zeta."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.zeta import (
    generalized_harmonic,
    hurwitz_zeta,
    riemann_zeta,
    truncated_hurwitz,
    truncated_zeta,
    zeta_prime,
)


def direct_hurwitz(alpha: float, q: float, n_terms: int = 200_000) -> float:
    """Reference ``ζ(α, q)``: the first *n_terms* terms summed directly.

    The remainder ``Σ_{n>=N} (n+q)^{-α}`` is its integral plus the first two
    Euler–Maclaurin corrections, which leaves an error of order
    ``(N+q)^{-α-3}``, far below the tolerances used here.
    """
    n = np.arange(n_terms, dtype=np.float64)
    a = n_terms + q
    tail = a ** (1.0 - alpha) / (alpha - 1.0) + 0.5 * a ** (-alpha) + alpha * a ** (-alpha - 1.0) / 12.0
    return float(np.sum((n + q) ** (-alpha)) + tail)


class TestRiemannZeta:
    def test_known_value_alpha_2(self):
        assert riemann_zeta(2.0) == pytest.approx(math.pi**2 / 6, rel=1e-12)

    def test_known_value_alpha_4(self):
        assert riemann_zeta(4.0) == pytest.approx(math.pi**4 / 90, rel=1e-12)

    def test_matches_direct_sum_across_paper_range(self):
        alphas = np.linspace(1.5, 3.0, 31)
        ours = riemann_zeta(alphas)
        reference = [direct_hurwitz(a, 1.0) for a in alphas]
        np.testing.assert_allclose(ours, reference, rtol=1e-10)

    def test_paper_quoted_range(self):
        # the paper states 1.202 <= zeta(alpha) <= 2.612 for alpha in [1.5, 3]
        assert riemann_zeta(3.0) == pytest.approx(1.202, abs=5e-4)
        assert riemann_zeta(1.5) == pytest.approx(2.612, abs=5e-4)

    def test_rejects_alpha_at_or_below_one(self):
        with pytest.raises(ValueError):
            riemann_zeta(1.0)
        with pytest.raises(ValueError):
            riemann_zeta(0.5)

    def test_scalar_in_scalar_out(self):
        assert isinstance(riemann_zeta(2.0), float)

    def test_array_in_array_out(self):
        out = riemann_zeta(np.array([2.0, 3.0]))
        assert isinstance(out, np.ndarray)
        assert out.shape == (2,)

    def test_monotone_decreasing_in_alpha(self):
        values = riemann_zeta(np.linspace(1.2, 5.0, 20))
        assert np.all(np.diff(values) < 0)


class TestHurwitzZeta:
    def test_reduces_to_riemann_at_q_1(self):
        assert hurwitz_zeta(2.5, 1.0) == pytest.approx(riemann_zeta(2.5), rel=1e-12)

    def test_matches_direct_sum(self):
        for q in (0.25, 0.5, 1.7, 3.0):
            assert hurwitz_zeta(2.2, q) == pytest.approx(direct_hurwitz(2.2, q), rel=1e-10)

    def test_rejects_nonpositive_q(self):
        with pytest.raises(ValueError):
            hurwitz_zeta(2.0, 0.0)

    def test_rejects_alpha_below_one(self):
        with pytest.raises(ValueError):
            hurwitz_zeta(0.9, 1.0)


class TestTruncatedSums:
    def test_truncated_zeta_small_direct(self):
        # sum over d=1..4 of d^-2 = 1 + 1/4 + 1/9 + 1/16
        assert truncated_zeta(2.0, 4) == pytest.approx(1 + 0.25 + 1 / 9 + 1 / 16)

    def test_truncated_zeta_converges_to_riemann(self):
        assert truncated_zeta(2.0, 10_000_000) == pytest.approx(riemann_zeta(2.0), rel=1e-6)

    def test_truncated_zeta_alpha_below_one_allowed(self):
        # finite sums are defined for any exponent
        assert truncated_zeta(0.5, 3) == pytest.approx(1 + 2**-0.5 + 3**-0.5)

    def test_truncated_hurwitz_matches_direct_sum_large_dmax(self):
        dmax = 50_000
        d = np.arange(1, dmax + 1, dtype=np.float64)
        direct = float(np.sum((d - 0.4) ** (-2.1)))
        assert truncated_hurwitz(2.1, -0.4, dmax) == pytest.approx(direct, rel=1e-9)

    def test_truncated_hurwitz_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            truncated_hurwitz(2.0, -1.0, 100)

    def test_generalized_harmonic_alias(self):
        assert generalized_harmonic(100, 1.8) == pytest.approx(truncated_zeta(1.8, 100))

    def test_truncated_zeta_rejects_bad_dmax(self):
        with pytest.raises((ValueError, TypeError)):
            truncated_zeta(2.0, 0)


class TestZetaPrime:
    def test_matches_finite_difference_of_direct_sum(self):
        eps = 1e-5
        expected = (direct_hurwitz(2.0 + eps, 1.0) - direct_hurwitz(2.0 - eps, 1.0)) / (2 * eps)
        assert zeta_prime(2.0) == pytest.approx(expected, rel=1e-4)

    def test_negative_everywhere(self):
        for alpha in (1.5, 2.0, 2.5, 3.0):
            assert zeta_prime(alpha) < 0

    def test_rejects_alpha_near_one(self):
        with pytest.raises(ValueError):
            zeta_prime(1.0)
