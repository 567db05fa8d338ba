"""Unit tests for repro.core.distributions."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.distributions import (
    DiscretePowerLaw,
    GeometricTailDistribution,
    PALUDegreeDistribution,
    PoissonDegreeDistribution,
    ZipfMandelbrotDistribution,
)
from repro.core.zeta import truncated_hurwitz, truncated_zeta

ALL_DISTS = [
    DiscretePowerLaw(2.0, 500),
    ZipfMandelbrotDistribution(2.0, -0.5, 500),
    PoissonDegreeDistribution(3.0, 500),
    GeometricTailDistribution(2.0, 500),
    PALUDegreeDistribution(c=0.3, l=0.4, u=0.05, alpha=2.0, Lambda=2.5, dmax=500),
]


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: type(d).__name__)
class TestCommonInterface:
    def test_pmf_sums_to_one(self, dist):
        assert dist.probabilities().sum() == pytest.approx(1.0, abs=1e-12)

    def test_pmf_nonnegative(self, dist):
        assert np.all(dist.probabilities() >= 0)

    def test_cdf_final_value_is_one(self, dist):
        assert dist.cdf(dist.dmax) == pytest.approx(1.0)

    def test_cdf_monotone(self, dist):
        cdf = dist.cdf(dist.support())
        assert np.all(np.diff(cdf) >= -1e-15)

    def test_pmf_zero_outside_support(self, dist):
        assert dist.pmf(0) == 0.0
        assert dist.pmf(dist.dmax + 1) == 0.0

    def test_sf_complements_cdf(self, dist):
        d = 17
        assert dist.sf(d) == pytest.approx(1.0 - dist.cdf(d))

    def test_sampling_within_support(self, dist):
        sample = dist.sample(1000, rng=0)
        assert sample.min() >= 1
        assert sample.max() <= dist.dmax

    def test_sampling_reproducible(self, dist):
        a = dist.sample(100, rng=7)
        b = dist.sample(100, rng=7)
        np.testing.assert_array_equal(a, b)

    def test_sample_mean_close_to_model_mean(self, dist):
        sample = dist.sample(200_000, rng=3)
        assert sample.mean() == pytest.approx(dist.mean(), rel=0.05)

    def test_mean_and_var_consistent_with_pmf(self, dist):
        d = dist.support().astype(float)
        p = dist.probabilities()
        assert dist.mean() == pytest.approx(float(np.sum(d * p)))
        assert dist.var() == pytest.approx(float(np.sum(d**2 * p)) - dist.mean() ** 2, abs=1e-10)

    def test_scalar_pmf_returns_float(self, dist):
        assert isinstance(dist.pmf(3), float)

    def test_vector_pmf_shape(self, dist):
        out = dist.pmf(np.array([1, 2, 3, 4]))
        assert out.shape == (4,)


class TestDiscretePowerLaw:
    def test_pmf_matches_formula(self):
        dist = DiscretePowerLaw(2.5, 1000)
        norm = truncated_zeta(2.5, 1000)
        assert dist.pmf(7) == pytest.approx(7**-2.5 / norm)

    def test_normalization_property(self):
        dist = DiscretePowerLaw(1.8, 500)
        assert dist.normalization() == pytest.approx(truncated_zeta(1.8, 500))

    def test_heavier_tail_for_smaller_alpha(self):
        light = DiscretePowerLaw(3.0, 10_000)
        heavy = DiscretePowerLaw(1.6, 10_000)
        assert heavy.sf(100) > light.sf(100)

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ValueError):
            DiscretePowerLaw(0.0, 100)


class TestZipfMandelbrot:
    def test_pmf_matches_formula(self):
        dist = ZipfMandelbrotDistribution(2.0, 0.5, 200)
        norm = truncated_hurwitz(2.0, 0.5, 200)
        assert dist.pmf(3) == pytest.approx((3 + 0.5) ** -2.0 / norm)

    def test_negative_delta_raises_degree_one_probability(self):
        base = ZipfMandelbrotDistribution(2.0, 0.0, 1000)
        shifted = ZipfMandelbrotDistribution(2.0, -0.8, 1000)
        assert shifted.pmf(1) > base.pmf(1)

    def test_positive_delta_lowers_degree_one_probability(self):
        base = ZipfMandelbrotDistribution(2.0, 0.0, 1000)
        shifted = ZipfMandelbrotDistribution(2.0, 2.0, 1000)
        assert shifted.pmf(1) < base.pmf(1)

    def test_delta_zero_equals_power_law(self):
        zm = ZipfMandelbrotDistribution(2.2, 0.0, 300)
        pl = DiscretePowerLaw(2.2, 300)
        np.testing.assert_allclose(zm.probabilities(), pl.probabilities(), rtol=1e-12)

    def test_rejects_delta_at_minus_one(self):
        with pytest.raises(ValueError):
            ZipfMandelbrotDistribution(2.0, -1.0, 100)


class TestPoissonDegree:
    def test_matches_conditional_poisson(self):
        from scipy.stats import poisson

        lam, dmax = 3.0, 60
        dist = PoissonDegreeDistribution(lam, dmax)
        d = np.arange(1, dmax + 1)
        raw = poisson.pmf(d, lam)
        expected = raw / raw.sum()
        np.testing.assert_allclose(dist.probabilities(), expected, rtol=1e-9)

    def test_mean_close_to_lambda_for_large_lambda(self):
        # conditioning on d >= 1 barely matters when lambda is large
        dist = PoissonDegreeDistribution(8.0, 200)
        assert dist.mean() == pytest.approx(8.0, rel=1e-3)

    def test_rejects_nonpositive_lambda(self):
        with pytest.raises(ValueError):
            PoissonDegreeDistribution(0.0, 100)


class TestGeometricTail:
    def test_ratio_between_consecutive_degrees(self):
        dist = GeometricTailDistribution(3.0, 100)
        assert dist.pmf(5) / dist.pmf(4) == pytest.approx(1 / 3.0)

    def test_rejects_r_at_or_below_one(self):
        with pytest.raises(ValueError):
            GeometricTailDistribution(1.0, 100)


class TestPALUDegreeDistribution:
    def test_degree_one_collects_all_three_pieces(self):
        dist = PALUDegreeDistribution(c=0.2, l=0.5, u=0.1, alpha=2.0, Lambda=2.0, dmax=1000)
        # unnormalised weight at d=1 is c + l + u; compare via ratio to d=2 weight
        w1 = 0.2 + 0.5 + 0.1
        w2 = 0.2 * 2**-2.0 + 0.1 * (2.0 / 2) ** 2
        assert dist.pmf(1) / dist.pmf(2) == pytest.approx(w1 / w2, rel=1e-9)

    def test_tail_approaches_pure_power_law(self):
        dist = PALUDegreeDistribution(c=0.3, l=0.3, u=0.1, alpha=2.0, Lambda=2.0, dmax=10_000)
        tail = dist.tail_distribution()
        # beyond d ~ 20 the Poisson factor is negligible: ratios should match
        ratio_mixture = dist.pmf(200) / dist.pmf(100)
        ratio_power = tail.pmf(200) / tail.pmf(100)
        assert ratio_mixture == pytest.approx(ratio_power, rel=1e-6)

    def test_component_fractions_sum_to_one(self):
        dist = PALUDegreeDistribution(c=0.3, l=0.4, u=0.05, alpha=2.0, Lambda=2.5, dmax=500)
        fractions = dist.component_fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_degree_one_fraction_matches_pmf(self):
        dist = PALUDegreeDistribution(c=0.3, l=0.4, u=0.05, alpha=2.0, Lambda=2.5, dmax=500)
        assert dist.degree_one_fraction() == pytest.approx(dist.pmf(1))

    def test_zero_lambda_means_no_unattached_tail(self):
        dist = PALUDegreeDistribution(c=0.5, l=0.2, u=0.1, alpha=2.0, Lambda=0.0, dmax=100)
        # for d >= 2 only the core term remains
        pl = DiscretePowerLaw(2.0, 100)
        ratio_mixture = dist.pmf(5) / dist.pmf(3)
        ratio_power = pl.pmf(5) / pl.pmf(3)
        assert ratio_mixture == pytest.approx(ratio_power, rel=1e-9)

    def test_requires_some_positive_weight(self):
        with pytest.raises(ValueError):
            PALUDegreeDistribution(c=0.0, l=0.0, u=0.0, alpha=2.0, Lambda=1.0, dmax=100)

    def test_more_unattached_weight_fattens_small_degrees(self):
        low_u = PALUDegreeDistribution(c=0.4, l=0.1, u=0.01, alpha=2.0, Lambda=4.0, dmax=5000)
        high_u = PALUDegreeDistribution(c=0.4, l=0.1, u=0.2, alpha=2.0, Lambda=4.0, dmax=5000)
        # probability of degrees 2..6 relative to the tail grows with u
        assert (high_u.cdf(6) - high_u.cdf(1)) > (low_u.cdf(6) - low_u.cdf(1))
