"""Unit tests for repro.core.zm_fit (Zipf–Mandelbrot parameter fitting)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.analysis.comparison import pooled_error_scorer, pooled_relative_error
from repro.analysis.histogram import degree_histogram
from repro.analysis.pooling import log2_bin_edges, pool_differential_cumulative, PooledDistribution
from repro.core.distributions import ZipfMandelbrotDistribution
from repro.core.zipf_mandelbrot import zm_differential_cumulative
from repro.core.zm_fit import _objective, _PooledModel, fit_zipf_mandelbrot, fit_zipf_mandelbrot_histogram


def _pooled_from_model(alpha: float, delta: float, dmax: int) -> PooledDistribution:
    return zm_differential_cumulative(dmax, alpha, delta)


class TestFitOnAnalyticCurves:
    """Fitting the model to its own (noise-free) pooled curve must recover (α, δ)."""

    @pytest.mark.parametrize(
        "alpha,delta",
        [(2.0, -0.5), (1.7, -0.8), (2.3, 0.6), (1.5, 0.0), (2.8, -0.3)],
    )
    def test_recovers_parameters(self, alpha, delta):
        dmax = 20_000
        pooled = _pooled_from_model(alpha, delta, dmax)
        fit = fit_zipf_mandelbrot(pooled, dmax)
        assert fit.alpha == pytest.approx(alpha, abs=0.05)
        assert fit.delta == pytest.approx(delta, abs=0.1)

    def test_fit_error_is_tiny_on_exact_curve(self):
        pooled = _pooled_from_model(2.0, -0.5, 10_000)
        fit = fit_zipf_mandelbrot(pooled, 10_000)
        assert fit.error < 1e-4

    def test_result_model_roundtrip(self):
        pooled = _pooled_from_model(2.0, -0.5, 5_000)
        fit = fit_zipf_mandelbrot(pooled, 5_000)
        model = fit.model()
        assert model.alpha == fit.alpha
        assert model.dmax == 5_000


class TestFitOnSampledData:
    def test_recovers_parameters_from_large_sample(self, zm_sample_histogram):
        # histogram fixture: 500k draws from ZM(alpha=2.0, delta=-0.5)
        fit = fit_zipf_mandelbrot_histogram(zm_sample_histogram)
        assert fit.alpha == pytest.approx(2.0, abs=0.15)
        assert fit.delta == pytest.approx(-0.5, abs=0.2)

    def test_sigma_weighting_runs(self, zm_sample_histogram):
        pooled = pool_differential_cumulative(zm_sample_histogram)
        sigma = np.full(pooled.n_bins, 0.01)
        weighted = PooledDistribution(
            bin_edges=pooled.bin_edges, values=pooled.values, sigma=sigma, total=pooled.total
        )
        fit = fit_zipf_mandelbrot(weighted, zm_sample_histogram.dmax, use_sigma_weights=True)
        assert np.isfinite(fit.error)

    def test_alpha_ordering_preserved(self):
        """A heavier-tailed sample must fit a smaller alpha."""
        rng = np.random.default_rng(1)
        heavy = degree_histogram(ZipfMandelbrotDistribution(1.6, -0.5, 20_000).sample(200_000, rng=rng))
        light = degree_histogram(ZipfMandelbrotDistribution(2.6, -0.5, 20_000).sample(200_000, rng=rng))
        fit_heavy = fit_zipf_mandelbrot_histogram(heavy)
        fit_light = fit_zipf_mandelbrot_histogram(light)
        assert fit_heavy.alpha < fit_light.alpha


class TestFitValidation:
    def test_empty_histogram_rejected(self):
        empty = degree_histogram([])
        with pytest.raises(ValueError):
            fit_zipf_mandelbrot_histogram(empty)

    def test_empty_grid_rejected(self):
        pooled = _pooled_from_model(2.0, 0.0, 100)
        with pytest.raises(ValueError):
            fit_zipf_mandelbrot(pooled, 100, alpha_grid=[])

    def test_refine_false_still_reasonable(self):
        pooled = _pooled_from_model(2.0, -0.5, 5000)
        fit = fit_zipf_mandelbrot(pooled, 5000, refine=False)
        assert fit.alpha == pytest.approx(2.0, abs=0.2)
        assert fit.converged is False

    def test_as_row_keys(self):
        pooled = _pooled_from_model(2.0, -0.5, 1000)
        fit = fit_zipf_mandelbrot(pooled, 1000)
        row = fit.as_row()
        assert {"alpha", "delta", "dmax", "log_mse", "bins", "converged"} <= set(row)

    def test_result_is_frozen(self):
        pooled = _pooled_from_model(2.0, -0.5, 1000)
        fit = fit_zipf_mandelbrot(pooled, 1000)
        with pytest.raises(AttributeError):
            fit.alpha = 3.0  # type: ignore[misc]

    def test_custom_grids_used(self):
        pooled = _pooled_from_model(2.0, -0.5, 2000)
        fit = fit_zipf_mandelbrot(
            pooled, 2000, alpha_grid=[1.9, 2.0, 2.1], delta_grid=[-0.6, -0.5, -0.4], refine=False
        )
        assert fit.alpha in (1.9, 2.0, 2.1)
        assert fit.delta in (-0.6, -0.5, -0.4)


def _mass_rtol(alpha: float) -> float:
    """Tolerance of the binned masses: zetas near ``α = 1`` share more digits."""
    return 1e-12 if alpha >= 1.01 else 1e-8


_ALPHAS = st.one_of(st.floats(1.0 + 1e-6, 1.01), st.floats(1.01, 10.0))
_DMAXES = st.integers(1, 200_000)


class TestBinnedObjective:
    """The O(bins) model of the fit objective against the dense pooled pmf."""

    @given(alpha=_ALPHAS, delta=st.floats(-1.0, 10.0, exclude_min=True), dmax=_DMAXES)
    @example(alpha=1.0 + 1e-6, delta=0.0, dmax=2**16 + 1)
    @example(alpha=1.01, delta=10.0, dmax=2**17 + 1)
    @example(alpha=2.0, delta=-0.5, dmax=1)
    def test_bin_masses_match_dense_pmf(self, alpha, delta, dmax):
        # dmax = 2^k + 1 leaves one degree in the last bin, far out: there the
        # zeta difference would cancel to a few digits without the direct sum
        dense = zm_differential_cumulative(dmax, alpha, delta)
        model = _PooledModel(dmax)
        np.testing.assert_array_equal(model.edges, dense.bin_edges)
        np.testing.assert_allclose(model.masses(alpha, delta), dense.values, rtol=_mass_rtol(alpha), atol=0)

    @given(
        alpha=_ALPHAS,
        delta=st.floats(-1.0 + 1e-9, 10.0, exclude_min=True),
        dmax=_DMAXES,
        n_observed_bins=st.integers(1, 20),
        seed=st.integers(0, 2**32 - 1),
        use_sigma=st.booleans(),
    )
    def test_objective_matches_dense_objective(self, alpha, delta, dmax, n_observed_bins, seed, use_sigma):
        # the observation may reach past the model's last bin, has gaps where
        # its bins are empty, and may carry σ weights
        rng = np.random.default_rng(seed)
        values = np.where(rng.random(n_observed_bins) < 0.7, rng.random(n_observed_bins), 0.0)
        sigma = rng.uniform(1e-4, 1e-2, n_observed_bins) if use_sigma else None
        observed = PooledDistribution(
            bin_edges=2 ** np.arange(n_observed_bins), values=values, sigma=sigma
        ).nonzero()
        weights = None if sigma is None else 1.0 / np.square(observed.sigma)
        dense = pooled_relative_error(
            observed, zm_differential_cumulative(dmax, alpha, delta), log_space=True, weights=weights
        )
        # a relative error r in each mass moves each log10 residual by at most
        # r/ln(10), so the mean square by at most sqrt(dense)·r + r²
        rtol = _mass_rtol(alpha)
        score = pooled_error_scorer(observed, log2_bin_edges(dmax), weights=weights)
        binned = _objective(np.array([alpha, delta]), score, _PooledModel(dmax))
        assert binned == pytest.approx(dense, rel=1e-12, abs=np.sqrt(dense) * rtol + rtol**2)

    def test_alpha_at_most_one_is_fitted_on_the_dense_pmf(self):
        # the Hurwitz zetas diverge for α <= 1, where only the dense branch of
        # the objective can score the grid points
        pooled = _pooled_from_model(0.8, -0.5, 2000)
        fit = fit_zipf_mandelbrot(pooled, 2000, alpha_grid=[0.6, 0.8, 1.2])
        assert fit.alpha == pytest.approx(0.8, abs=1e-3)
        assert fit.delta == pytest.approx(-0.5, abs=1e-2)
