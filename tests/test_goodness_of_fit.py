"""Unit tests for repro.core.goodness_of_fit and repro.analysis.clustering."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.analysis.clustering import (
    average_clustering,
    clustering_by_degree,
    clustering_summary,
    local_clustering,
)
from repro.analysis.histogram import degree_histogram
from repro.core.distributions import DiscretePowerLaw, ZipfMandelbrotDistribution
from repro.core.goodness_of_fit import (
    bootstrap_parameter_ci,
    likelihood_ratio_test,
    power_law_plausibility,
)
from repro.core.powerlaw_fit import fit_discrete_mle, fit_power_law
from repro.core.zm_fit import fit_zipf_mandelbrot_histogram


@pytest.fixture(scope="module")
def powerlaw_sample():
    return degree_histogram(DiscretePowerLaw(2.2, 50_000).sample(100_000, rng=1))


@pytest.fixture(scope="module")
def zm_sample():
    return degree_histogram(ZipfMandelbrotDistribution(2.0, -0.85, 50_000).sample(100_000, rng=2))


class TestPowerLawPlausibility:
    def test_true_power_law_is_plausible(self, powerlaw_sample):
        result = power_law_plausibility(powerlaw_sample, n_bootstrap=40, rng=3)
        assert result.p_value > 0.1
        assert result.plausible()

    def test_zm_head_rules_out_pure_power_law(self, zm_sample):
        result = power_law_plausibility(zm_sample, n_bootstrap=40, rng=4)
        assert result.p_value < 0.1
        assert not result.plausible()

    def test_result_fields(self, powerlaw_sample):
        result = power_law_plausibility(powerlaw_sample, n_bootstrap=10, rng=5)
        assert result.n_bootstrap == 10
        assert 0.0 <= result.observed_ks <= 1.0
        assert result.alpha == pytest.approx(2.2, abs=0.1)

    def test_empty_histogram_rejected(self):
        with pytest.raises(ValueError):
            power_law_plausibility(degree_histogram([]), n_bootstrap=5)

    def test_observed_ks_is_the_fit_statistic(self):
        """The statistic sees the model mass below each observed degree.

        Between the observed degrees 6 and 40 the fitted model opens a gap
        the empirical cdf does not follow; a statistic that compares the
        two cdfs only at observed degrees reads 0.096 here, not 0.527.
        """
        histogram = degree_histogram([5, 5, 5, 6, 40, 40])
        result = power_law_plausibility(histogram, d_min=2, n_bootstrap=5, rng=0)
        expected = fit_discrete_mle(histogram, d_min=2).ks
        assert result.observed_ks == expected
        assert expected == pytest.approx(0.527, abs=1e-3)


class TestLikelihoodRatioTest:
    def test_favours_true_model_on_zm_data(self, zm_sample):
        dmax = zm_sample.dmax
        zm_fit = fit_zipf_mandelbrot_histogram(zm_sample)
        pl_fit = fit_power_law(zm_sample, d_min=1)
        result = likelihood_ratio_test(
            zm_sample,
            zm_fit.model().distribution(),
            pl_fit.model(dmax),
            name_a="zipf_mandelbrot",
            name_b="power_law",
        )
        assert result.log_likelihood_ratio > 0
        assert result.favours == "zipf_mandelbrot"
        assert result.significant()

    def test_identical_models_inconclusive(self, powerlaw_sample):
        model = DiscretePowerLaw(2.2, powerlaw_sample.dmax)
        result = likelihood_ratio_test(powerlaw_sample, model, model)
        assert result.favours == "inconclusive"
        assert result.p_value == 1.0

    def test_insufficient_support_rejected(self, powerlaw_sample):
        tiny = DiscretePowerLaw(2.0, 2)
        with pytest.raises(ValueError):
            likelihood_ratio_test(powerlaw_sample, tiny, DiscretePowerLaw(2.0, powerlaw_sample.dmax))


class TestBootstrapCI:
    def test_interval_contains_point_estimate(self, powerlaw_sample):
        point, lower, upper = bootstrap_parameter_ci(
            powerlaw_sample,
            lambda h: fit_power_law(h, d_min=1).alpha,
            n_bootstrap=30,
            rng=6,
        )
        assert lower <= point <= upper
        assert upper - lower < 0.2  # 100k samples pin alpha down tightly

    def test_interval_covers_true_alpha(self, powerlaw_sample):
        point, lower, upper = bootstrap_parameter_ci(
            powerlaw_sample,
            lambda h: fit_power_law(h, d_min=1).alpha,
            n_bootstrap=30,
            rng=7,
        )
        assert lower - 0.05 <= 2.2 <= upper + 0.05

    def test_invalid_confidence_rejected(self, powerlaw_sample):
        with pytest.raises(ValueError):
            bootstrap_parameter_ci(powerlaw_sample, lambda h: 1.0, confidence=1.5)


class TestClustering:
    def test_triangle_graph(self):
        g = nx.complete_graph(3)
        assert local_clustering(g) == {0: 1.0, 1: 1.0, 2: 1.0}
        assert average_clustering(g) == pytest.approx(1.0)

    def test_star_graph_has_zero_clustering(self):
        g = nx.star_graph(10)
        assert average_clustering(g) == 0.0

    def test_matches_networkx_on_random_graph(self):
        g = nx.gnp_random_graph(200, 0.05, seed=1)
        ours = local_clustering(g)
        theirs = nx.clustering(g)
        for node in g.nodes():
            assert ours[node] == pytest.approx(theirs[node], abs=1e-12)

    def test_clustering_by_degree_profile(self):
        g = nx.barabasi_albert_graph(500, 3, seed=2)
        profile = clustering_by_degree(g)
        assert profile
        assert all(0.0 <= c <= 1.0 for c in profile.values())

    def test_empty_graph(self):
        assert average_clustering(nx.Graph()) == 0.0

    def test_palu_leaf_and_star_classes_have_zero_clustering(self, small_palu_graph):
        summary = clustering_summary(small_palu_graph.graph, small_palu_graph.class_of())
        assert summary["clustering_leaf"] == 0.0
        assert summary["clustering_centre"] == 0.0
        assert summary["clustering_star_leaf"] == 0.0
        # the configuration-model core has some (small) clustering
        assert summary["clustering_core"] >= 0.0
        assert summary["n_nodes"] == small_palu_graph.n_nodes
