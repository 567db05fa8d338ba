"""Unit tests for repro.core.palu_fit (the Section IV-B fitting recipe)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.stats import poisson

from repro.analysis.histogram import DegreeHistogram, degree_histogram
from repro.analysis.moments import poisson_moment_rhs
from repro.core.palu_fit import PALUFitResult, fit_palu, solve_lambda_from_ratio
from repro.core.palu_model import PALUParameters, reduced_parameters


def _exact_palu_histogram(
    c: float, l: float, u: float, alpha: float, m: float, dmax: int, total: int = 10**10
) -> DegreeHistogram:
    """Histogram with counts following the reduced PALU law *exactly*.

    Degree 1 carries ``c + l + u`` (Eq. 2); degrees ``d >= 2`` carry
    ``c·d^{-α} + u·m^d/d!`` with the exact Poisson form (not the Stirling
    approximation) so the moment-based estimator can be validated against
    its own model assumptions.
    """
    d = np.arange(1, dmax + 1, dtype=np.float64)
    weights = c * d ** (-alpha)
    weights[1:] += u * poisson.pmf(d[1:], m) / math.exp(-m)  # u * m^d / d!
    weights[0] += l + u
    weights /= weights.sum()
    counts = np.round(weights * total).astype(np.int64)
    return DegreeHistogram.from_dense(counts)


class TestSolveLambdaFromRatio:
    def test_round_trip(self):
        for m in (0.1, 0.5, 1.0, 2.5, 6.0):
            assert solve_lambda_from_ratio(poisson_moment_rhs(m)) == pytest.approx(m, rel=1e-6)

    def test_ratio_at_or_below_two_maps_to_zero(self):
        assert solve_lambda_from_ratio(2.0) == 0.0
        assert solve_lambda_from_ratio(1.5) == 0.0

    def test_nan_ratio_maps_to_zero(self):
        assert solve_lambda_from_ratio(float("nan")) == 0.0

    def test_huge_ratio_clamped(self):
        assert solve_lambda_from_ratio(1e9, m_max=50.0) == 50.0

    def test_monotone(self):
        values = [solve_lambda_from_ratio(r) for r in (2.1, 2.5, 3.0, 4.0, 6.0)]
        assert all(a < b for a, b in zip(values, values[1:]))


class TestFitOnExactMixture:
    """The recipe must recover parameters from its own model, noise-free."""

    @pytest.mark.parametrize(
        "c,l,u,alpha,m",
        [
            (0.3, 0.4, 0.05, 2.0, 1.5),
            (0.2, 0.5, 0.10, 2.5, 1.0),
            (0.4, 0.2, 0.08, 1.8, 2.5),
        ],
    )
    def test_recovers_parameters(self, c, l, u, alpha, m):
        hist = _exact_palu_histogram(c, l, u, alpha, m, dmax=20_000)
        # the mixture weights are normalised when building the histogram, so
        # recover the normalisation to compare in the same units
        d = np.arange(1, 20_001, dtype=np.float64)
        norm = float(
            (c * d ** (-alpha)).sum()
            + (u * poisson.pmf(d[1:], m) / math.exp(-m)).sum()
            + l
            + u
        )
        fit = fit_palu(hist, method="moment")
        assert fit.alpha == pytest.approx(alpha, abs=0.05)
        assert fit.c == pytest.approx(c / norm, rel=0.1)
        assert fit.poisson_mean == pytest.approx(m, rel=0.15)
        assert fit.u == pytest.approx(u / norm, rel=0.3)
        assert fit.l == pytest.approx(l / norm, rel=0.1)

    def test_lambda_paper_parameterisation(self):
        hist = _exact_palu_histogram(0.3, 0.4, 0.05, 2.0, 1.5, dmax=20_000)
        fit = fit_palu(hist)
        assert fit.Lambda == pytest.approx(math.e * fit.poisson_mean)

    def test_no_unattached_component_detected_when_absent(self):
        hist = _exact_palu_histogram(0.4, 0.5, 0.0, 2.0, 1.0, dmax=20_000)
        fit = fit_palu(hist, method="moment")
        assert fit.u == pytest.approx(0.0, abs=1e-3)
        assert fit.poisson_mean == pytest.approx(0.0, abs=0.3)


class TestFitOnSampledPALU:
    def test_recovery_from_sampled_distribution(self, palu_sample_histogram):
        # fixture: 800k draws from PALUDegreeDistribution(c=0.3, l=0.4, u=0.05,
        # alpha=2.0, Lambda=2.5); note the weights are normalised by ~0.75+
        fit = fit_palu(palu_sample_histogram)
        assert fit.alpha == pytest.approx(2.0, abs=0.1)
        assert fit.l > fit.u  # leaves dominate the unattached weight
        assert fit.c > 0

    def test_pointwise_method_runs(self, palu_sample_histogram):
        fit = fit_palu(palu_sample_histogram, method="pointwise")
        assert fit.method == "pointwise"
        assert np.isfinite(fit.poisson_mean)

    def test_distribution_round_trip_close_to_data(self, palu_sample_histogram):
        fit = fit_palu(palu_sample_histogram)
        refit = fit.distribution()
        observed_p1 = palu_sample_histogram.fraction_at(1)
        assert refit.pmf(1) == pytest.approx(observed_p1, rel=0.1)


class TestToUnderlying:
    def test_round_trip_through_reduced_parameters(self):
        params = PALUParameters.from_weights(0.5, 0.25, 0.25, lam=2.0, alpha=2.0)
        p = 0.6
        red = reduced_parameters(params, p)
        fit = PALUFitResult(
            c=red.c,
            l=red.l,
            u=red.u,
            alpha=params.alpha,
            poisson_mean=red.poisson_mean,
            Lambda=red.Lambda,
            tail_r_squared=1.0,
            residual_mass=0.0,
            method="moment",
            dmax=10_000,
        )
        recovered = fit.to_underlying(p)
        assert recovered.core == pytest.approx(params.core, rel=1e-6)
        assert recovered.leaves == pytest.approx(params.leaves, rel=1e-6)
        assert recovered.unattached == pytest.approx(params.unattached, rel=1e-6)
        assert recovered.lam == pytest.approx(params.lam, rel=1e-9)

    def test_rejects_p_zero_or_one_boundary(self, palu_sample_histogram):
        fit = fit_palu(palu_sample_histogram)
        with pytest.raises(ValueError):
            fit.to_underlying(0.0)

    def test_rejects_implied_lambda_out_of_range(self):
        fit = PALUFitResult(
            c=0.3, l=0.3, u=0.05, alpha=2.0, poisson_mean=5.0, Lambda=math.e * 5.0,
            tail_r_squared=1.0, residual_mass=0.0, method="moment", dmax=100,
        )
        with pytest.raises(ValueError, match="exceeds the model range"):
            fit.to_underlying(0.01)


class TestValidation:
    def test_empty_histogram_rejected(self):
        with pytest.raises(ValueError):
            fit_palu(degree_histogram([]))

    def test_unknown_method_rejected(self, palu_sample_histogram):
        with pytest.raises(ValueError):
            fit_palu(palu_sample_histogram, method="bayesian")

    def test_as_row_keys(self, palu_sample_histogram):
        row = fit_palu(palu_sample_histogram).as_row()
        assert {"c", "l", "u", "alpha", "Lambda", "m", "tail_R2", "method"} <= set(row)

    def test_short_support_falls_back_to_smaller_tail_cutoff(self):
        # dmax < 10: the tail regression must degrade gracefully
        d = np.arange(1, 9)
        counts = (1e6 * d ** -2.0).astype(np.int64)
        hist = DegreeHistogram.from_dense(counts)
        fit = fit_palu(hist)
        assert np.isfinite(fit.alpha)
