"""Unit tests for repro.core.powerlaw_fit (single-exponent baseline)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.histogram import degree_histogram
from repro.core.distributions import DiscretePowerLaw, ZipfMandelbrotDistribution
from repro.core import powerlaw_fit
from repro.core.powerlaw_fit import (
    _tail_ks,
    fit_discrete_mle,
    fit_power_law,
    mle_score_equation,
    select_dmin,
)


@pytest.fixture(scope="module")
def powerlaw_sample():
    dist = DiscretePowerLaw(2.3, 100_000)
    return degree_histogram(dist.sample(300_000, rng=11))


@pytest.fixture(scope="module")
def zm_contaminated_sample():
    # a large positive delta flattens the head relative to any pure power law
    return degree_histogram(ZipfMandelbrotDistribution(2.0, 3.0, 50_000).sample(300_000, rng=5))


class TestDiscreteMLE:
    def test_recovers_alpha(self, powerlaw_sample):
        fit = fit_discrete_mle(powerlaw_sample)
        assert fit.alpha == pytest.approx(2.3, abs=0.05)

    @pytest.mark.parametrize("alpha_true", [1.6, 2.0, 2.8])
    def test_recovers_alpha_across_range(self, alpha_true):
        hist = degree_histogram(DiscretePowerLaw(alpha_true, 50_000).sample(200_000, rng=3))
        fit = fit_discrete_mle(hist)
        assert fit.alpha == pytest.approx(alpha_true, abs=0.06)

    def test_loglik_is_maximised_at_fit(self, powerlaw_sample):
        fit = fit_discrete_mle(powerlaw_sample)
        perturbed_low = fit_discrete_mle(powerlaw_sample, alpha_bounds=(fit.alpha - 0.5, fit.alpha - 0.3))
        assert fit.log_likelihood >= perturbed_low.log_likelihood

    def test_score_equation_near_zero_at_mle(self, powerlaw_sample):
        fit = fit_discrete_mle(powerlaw_sample, d_min=1)
        degrees = powerlaw_sample.degrees.astype(float)
        counts = powerlaw_sample.counts.astype(float)
        mean_log = float(np.dot(counts, np.log(degrees)) / counts.sum())
        assert abs(mle_score_equation(fit.alpha, mean_log)) < 5e-3

    def test_d_min_tail_only(self, powerlaw_sample):
        fit = fit_discrete_mle(powerlaw_sample, d_min=5)
        assert fit.d_min == 5
        assert fit.n_tail < powerlaw_sample.total

    def test_empty_tail_rejected(self, powerlaw_sample):
        with pytest.raises(ValueError):
            fit_discrete_mle(powerlaw_sample, d_min=10_000_000)

    def test_ks_in_unit_interval(self, powerlaw_sample):
        fit = fit_discrete_mle(powerlaw_sample)
        assert 0.0 <= fit.ks <= 1.0

    def test_model_round_trip(self, powerlaw_sample):
        fit = fit_discrete_mle(powerlaw_sample)
        model = fit.model(1000)
        assert model.alpha == fit.alpha
        assert model.dmax == 1000


def _dense_tail_ks(alpha, degrees, counts, d_min):
    """Both tail cdfs over the whole support ``d_min..dmax``."""
    support = np.arange(d_min, int(degrees.max()) + 1, dtype=np.float64)
    weights = support ** (-alpha)
    model_cdf = np.cumsum(weights) / weights.sum()
    emp = np.zeros(support.size, dtype=np.float64)
    emp[degrees - d_min] = counts
    emp_cdf = np.cumsum(emp) / emp.sum()
    return float(np.max(np.abs(emp_cdf - model_cdf)))


def _one_scan_tail_ks(alpha, degrees, counts, d_min):
    """The model cdf at every observed degree and the degree before it."""
    emp = np.cumsum(counts) / counts.sum()
    emp_points = np.concatenate(([0.0], emp[:-1], emp))
    points = np.concatenate((degrees - 1, degrees)).astype(np.float64)
    if alpha > 1.0:
        from scipy.special import zeta

        head = zeta(alpha, d_min)
        tails = zeta(alpha, points + 1.0)
        model = (head - tails) / (head - tails[-1])
    else:
        cdf = np.cumsum(np.arange(d_min, degrees[-1] + 1, dtype=np.float64) ** -alpha)
        model = np.concatenate(([0.0], cdf))[(points - (d_min - 1)).astype(np.int64)] / cdf[-1]
    return float(np.max(np.abs(emp_points - model)))


class TestTailKS:
    @pytest.mark.parametrize("sample", ["powerlaw_sample", "zm_contaminated_sample", "tiny"])
    def test_bit_identical_to_one_scan(self, request, sample):
        """Skipping the points whose gap is bounded below the maximum never
        changes the statistic, not even in the last bit."""
        if sample == "tiny":
            hist = degree_histogram(np.array([5, 5, 5, 6, 40, 40, 41, 900]))
        else:
            hist = request.getfixturevalue(sample)
        for d_min in (1, 2, 3, 7, 30, 67, 100, 1000):
            mask = hist.degrees >= d_min
            if not mask.any():
                continue
            degrees, counts = hist.degrees[mask], hist.counts[mask]
            for alpha in (0.5, 1.0, 1.01, 1.3, 1.6, 2.0, 2.3, 3.0, 4.5, 6.0):
                assert _tail_ks(alpha, degrees, counts, d_min) == _one_scan_tail_ks(alpha, degrees, counts, d_min)

    @pytest.mark.parametrize(
        "sample, cutoff", [("powerlaw_sample", 1), ("zm_contaminated_sample", 67)]
    )
    def test_select_dmin_sees_the_one_scan_statistic(self, request, monkeypatch, sample, cutoff):
        """At every candidate cutoff of the select_dmin inputs below, the
        statistic equals the one-scan one, so the cutoffs are the same."""
        checked = []

        def both(alpha, degrees, counts, d_min):
            ks = _tail_ks(alpha, degrees, counts, d_min)
            assert ks == _one_scan_tail_ks(alpha, degrees, counts, d_min)
            checked.append(d_min)
            return ks

        monkeypatch.setattr(powerlaw_fit, "_tail_ks", both)
        assert select_dmin(request.getfixturevalue(sample)) == cutoff
        assert len(checked) > 100

    @pytest.mark.parametrize("d_min", [1, 2, 7, 100, 1000])
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.01, 1.6, 2.3, 6.0])
    def test_matches_the_dense_cdfs(self, powerlaw_sample, alpha, d_min):
        mask = powerlaw_sample.degrees >= d_min
        degrees, counts = powerlaw_sample.degrees[mask], powerlaw_sample.counts[mask]
        expected = _dense_tail_ks(alpha, degrees, counts, d_min)
        assert _tail_ks(alpha, degrees, counts, d_min) == pytest.approx(expected, abs=1e-12)

    def test_cutoff_below_the_smallest_observed_degree(self):
        # the model's mass on d_min..o_0-1 counts against an empirical cdf of 0
        degrees, counts = np.array([5, 6, 40]), np.array([3, 0, 2])
        expected = _dense_tail_ks(2.0, degrees, counts, 2)
        assert _tail_ks(2.0, degrees, counts, 2) == pytest.approx(expected, abs=1e-12)


class TestSelectDmin:
    def test_pure_power_law_prefers_small_dmin(self, powerlaw_sample):
        d_min = select_dmin(powerlaw_sample)
        assert d_min <= 4
        # the cutoff picked when the tail normaliser was ζ(α) minus the head sum
        assert d_min == 1

    def test_zm_contaminated_head_prefers_larger_dmin(self, zm_contaminated_sample):
        # the flattened head should move the KS-optimal cutoff past d = 1
        d_min = select_dmin(zm_contaminated_sample)
        assert d_min >= 2
        # the cutoff picked when the tail normaliser was ζ(α) minus the head sum
        assert d_min == 67

    def test_empty_histogram_rejected(self):
        with pytest.raises(ValueError):
            select_dmin(degree_histogram([]))


class TestFitPowerLaw:
    def test_default_uses_given_dmin(self, powerlaw_sample):
        fit = fit_power_law(powerlaw_sample, d_min=3)
        assert fit.d_min == 3

    def test_select_cutoff_path(self, powerlaw_sample):
        fit = fit_power_law(powerlaw_sample, select_cutoff=True)
        assert fit.d_min == 1
        assert fit.alpha == pytest.approx(2.3, abs=0.1)

    def test_as_row_keys(self, powerlaw_sample):
        row = fit_power_law(powerlaw_sample).as_row()
        assert {"alpha", "d_min", "ks", "n_tail", "loglik"} <= set(row)

    def test_power_law_fits_worse_on_zm_head(self):
        """A power law matching the tail badly underestimates the d=1 excess.

        This is the paper's motivation for the δ offset: trunk-style data has
        far more degree-1 mass than any power law with the tail's exponent.
        """
        zm_hist = degree_histogram(
            ZipfMandelbrotDistribution(2.0, -0.85, 50_000).sample(400_000, rng=9)
        )
        tail_fit = fit_power_law(zm_hist, d_min=10)
        # the tail exponent is close to the true alpha = 2.0 ...
        assert tail_fit.alpha == pytest.approx(2.0, abs=0.2)
        model = tail_fit.model(zm_hist.dmax)
        observed_p1 = zm_hist.fraction_at(1)
        # ... but a power law with that exponent cannot reproduce the d=1 spike
        assert observed_p1 > model.pmf(1) + 0.2
