"""Unit tests for repro.analysis.comparison and repro.analysis.summary."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.analysis.comparison import (
    chi_square_statistic,
    compare_models,
    ks_statistic,
    log_likelihood,
    pooled_error_scorer,
    pooled_relative_error,
)
from repro.analysis.histogram import degree_histogram
from repro.analysis.pooling import PooledDistribution, pool_differential_cumulative, pool_probability_vector
from repro.analysis.summary import format_table, summarize_graph, summarize_window
from repro.core.distributions import DiscretePowerLaw, ZipfMandelbrotDistribution


@pytest.fixture(scope="module")
def sample_histogram():
    dist = ZipfMandelbrotDistribution(2.0, -0.5, 10_000)
    return degree_histogram(dist.sample(100_000, rng=17))


@pytest.fixture(scope="module")
def sample_pooled(sample_histogram):
    return pool_differential_cumulative(sample_histogram)


class TestPooledRelativeError:
    def test_zero_for_identical_distributions(self, sample_pooled):
        assert pooled_relative_error(sample_pooled, sample_pooled) == pytest.approx(0.0)

    def test_positive_for_different_models(self, sample_pooled, sample_histogram):
        wrong = pool_probability_vector(DiscretePowerLaw(3.0, sample_histogram.dmax).probabilities())
        assert pooled_relative_error(sample_pooled, wrong) > 0.01

    def test_better_model_scores_lower(self, sample_pooled, sample_histogram):
        dmax = sample_histogram.dmax
        good = pool_probability_vector(ZipfMandelbrotDistribution(2.0, -0.5, dmax).probabilities())
        bad = pool_probability_vector(ZipfMandelbrotDistribution(2.8, 1.0, dmax).probabilities())
        assert pooled_relative_error(sample_pooled, good) < pooled_relative_error(sample_pooled, bad)

    def test_linear_space_option(self, sample_pooled, sample_histogram):
        model = pool_probability_vector(DiscretePowerLaw(2.0, sample_histogram.dmax).probabilities())
        linear = pooled_relative_error(sample_pooled, model, log_space=False)
        assert np.isfinite(linear) and linear >= 0

    def test_weights_change_result(self, sample_pooled, sample_histogram):
        model = pool_probability_vector(DiscretePowerLaw(2.5, sample_histogram.dmax).probabilities())
        flat = pooled_relative_error(sample_pooled, model)
        w = np.zeros(sample_pooled.n_bins)
        w[0] = 1.0  # only the d=1 bin matters
        weighted = pooled_relative_error(sample_pooled, model, weights=w)
        assert weighted != pytest.approx(flat)

    def test_weight_shape_mismatch_rejected(self, sample_pooled, sample_histogram):
        model = pool_probability_vector(DiscretePowerLaw(2.5, sample_histogram.dmax).probabilities())
        with pytest.raises(ValueError):
            pooled_relative_error(sample_pooled, model, weights=np.ones(2))

    @pytest.mark.parametrize("log_space", [True, False])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_scorer_matches_aligning_the_model_per_call(
        self, sample_pooled, sample_histogram, log_space, weighted
    ):
        # the model's bins start past the observation's first bin and stop
        # short of its last, so both ends of the alignment zero-fill
        full = pool_probability_vector(DiscretePowerLaw(2.5, sample_histogram.dmax // 8).probabilities())
        model = PooledDistribution(bin_edges=full.bin_edges[1:], values=full.values[1:])
        weights = np.linspace(1.0, 2.0, sample_pooled.n_bins) if weighted else None
        mask = sample_pooled.values > 0
        obs, mod = sample_pooled.values[mask], model.align_to(sample_pooled.bin_edges).values[mask]
        if log_space:
            err = np.log10(np.maximum(obs, 1e-300)) - np.log10(np.maximum(mod, 1e-300))
        else:
            err = obs - mod
        if weights is None:
            expected = float(np.mean(err**2))
        else:
            expected = float(np.sum(weights[mask] * err**2) / np.sum(weights[mask]))
        score = pooled_error_scorer(sample_pooled, model.bin_edges, log_space=log_space, weights=weights)
        assert score(model.values) == expected
        assert score(model.values * 0.5) != expected
        assert pooled_relative_error(sample_pooled, model, log_space=log_space, weights=weights) == expected


class TestKSAndChiSquare:
    def test_ks_zero_for_matching_model(self, sample_histogram):
        model = ZipfMandelbrotDistribution(2.0, -0.5, sample_histogram.dmax)
        assert ks_statistic(sample_histogram, model) < 0.02

    def test_ks_larger_for_wrong_model(self, sample_histogram):
        good = ZipfMandelbrotDistribution(2.0, -0.5, sample_histogram.dmax)
        bad = DiscretePowerLaw(3.0, sample_histogram.dmax)
        assert ks_statistic(sample_histogram, bad) > ks_statistic(sample_histogram, good)

    def test_ks_bounded(self, sample_histogram):
        model = DiscretePowerLaw(2.0, sample_histogram.dmax)
        assert 0.0 <= ks_statistic(sample_histogram, model) <= 1.0

    def test_chi_square_zero_for_identical(self, sample_pooled):
        assert chi_square_statistic(sample_pooled, sample_pooled) == pytest.approx(0.0)

    def test_chi_square_positive_for_different(self, sample_pooled, sample_histogram):
        wrong = pool_probability_vector(DiscretePowerLaw(3.0, sample_histogram.dmax).probabilities())
        assert chi_square_statistic(sample_pooled, wrong) > 0


class TestLogLikelihood:
    def test_higher_for_true_model(self, sample_histogram):
        good = ZipfMandelbrotDistribution(2.0, -0.5, sample_histogram.dmax)
        bad = ZipfMandelbrotDistribution(2.8, 0.5, sample_histogram.dmax)
        assert log_likelihood(sample_histogram, good) > log_likelihood(sample_histogram, bad)

    def test_minus_inf_when_support_too_small(self, sample_histogram):
        tiny = DiscretePowerLaw(2.0, 2)  # support misses most observed degrees
        assert log_likelihood(sample_histogram, tiny) == float("-inf")

    def test_empty_histogram_gives_zero(self):
        assert log_likelihood(degree_histogram([]), DiscretePowerLaw(2.0, 10)) == 0.0


class TestCompareModels:
    def test_ranking_puts_true_model_first(self, sample_histogram, sample_pooled):
        dmax = sample_histogram.dmax
        results = compare_models(
            sample_histogram,
            sample_pooled,
            {
                "zm_true": ZipfMandelbrotDistribution(2.0, -0.5, dmax),
                "powerlaw": DiscretePowerLaw(2.0, dmax),
                "zm_wrong": ZipfMandelbrotDistribution(2.8, 1.5, dmax),
            },
            n_parameters={"zm_true": 2, "powerlaw": 1, "zm_wrong": 2},
        )
        assert results[0].name == "zm_true"
        assert all(a.pooled_error <= b.pooled_error for a, b in zip(results, results[1:]))

    def test_aic_penalises_parameters(self, sample_histogram, sample_pooled):
        dmax = sample_histogram.dmax
        results = compare_models(
            sample_histogram,
            sample_pooled,
            {"m": DiscretePowerLaw(2.0, dmax)},
            n_parameters={"m": 3},
        )
        row = results[0].as_row()
        assert row["aic"] == pytest.approx(2 * 3 - 2 * row["loglik"])


class TestSummary:
    def test_summarize_graph_keys(self):
        g = nx.star_graph(10)
        summary = summarize_graph(g)
        assert summary.n_nodes == 11
        assert summary.dmax == 10
        assert 0 <= summary.degree_one_fraction <= 1

    def test_summarize_empty_graph(self):
        summary = summarize_graph(nx.Graph())
        assert summary.n_nodes == 0

    def test_summarize_window(self):
        hists = {"source_packets": degree_histogram([1, 1, 2, 4])}
        out = summarize_window(hists)
        assert out["source_packets"]["total"] == 4
        assert out["source_packets"]["dmax"] == 4

    def test_format_table_renders_all_rows(self):
        rows = [{"a": 1, "b": 2.5}, {"a": 10, "b": 0.125}]
        text = format_table(rows)
        assert "a" in text and "b" in text
        assert len(text.splitlines()) == 4  # header + separator + 2 rows

    def test_format_table_empty(self):
        assert "empty" in format_table([])
