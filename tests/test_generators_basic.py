"""Unit tests for the basic generators: degree sequences, configuration model,
Erdős–Rényi, and Poisson stars."""

from __future__ import annotations

import math
import tracemalloc

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.generators import erdos_renyi
from repro.generators.configuration_model import (
    configuration_model_edges,
    generate_configuration_model,
)
from repro.generators.degree_sequence import (
    make_sum_even,
    sample_power_law_degrees,
    sample_zipf_mandelbrot_degrees,
)
from repro.generators.erdos_renyi import erdos_renyi_edges, generate_erdos_renyi
from repro.generators.poisson_stars import generate_poisson_stars, poisson_star_edges


class TestDegreeSequences:
    def test_power_law_sample_range(self):
        degrees = sample_power_law_degrees(10_000, 2.0, dmax=1000, rng=0)
        assert degrees.min() >= 1
        assert degrees.max() <= 1000

    def test_power_law_degree_one_fraction(self):
        degrees = sample_power_law_degrees(200_000, 2.0, dmax=100_000, rng=1)
        # P(d=1) = 1/zeta(2) ~ 0.608 for the (barely) truncated law
        assert np.mean(degrees == 1) == pytest.approx(0.608, abs=0.01)

    def test_zipf_mandelbrot_sample_shifts_head(self):
        plain = sample_power_law_degrees(100_000, 2.0, dmax=10_000, rng=2)
        shifted = sample_zipf_mandelbrot_degrees(100_000, 2.0, -0.8, dmax=10_000, rng=2)
        assert np.mean(shifted == 1) > np.mean(plain == 1)

    def test_zero_samples(self):
        assert sample_power_law_degrees(0, 2.0, rng=0).size == 0

    def test_make_sum_even_fixes_odd_sum(self):
        degrees = np.array([1, 1, 1])
        fixed = make_sum_even(degrees, rng=0)
        assert fixed.sum() % 2 == 0
        assert fixed.sum() == 4

    def test_make_sum_even_leaves_even_sum(self):
        degrees = np.array([2, 1, 1])
        np.testing.assert_array_equal(make_sum_even(degrees, rng=0), degrees)

    def test_make_sum_even_does_not_mutate_input(self):
        degrees = np.array([1, 1, 1])
        make_sum_even(degrees, rng=0)
        assert degrees.sum() == 3


class TestConfigurationModel:
    def test_edges_reference_valid_nodes(self):
        degrees = sample_power_law_degrees(500, 2.0, dmax=100, rng=3)
        edges = configuration_model_edges(degrees, rng=4)
        assert edges.min() >= 0
        assert edges.max() < 500

    def test_no_self_loops(self):
        degrees = np.array([3, 3, 3, 3, 2, 2])
        edges = configuration_model_edges(degrees, rng=5)
        assert np.all(edges[:, 0] != edges[:, 1])

    def test_no_duplicate_edges(self):
        degrees = sample_power_law_degrees(300, 1.8, dmax=50, rng=6)
        edges = configuration_model_edges(degrees, rng=7)
        assert np.unique(edges, axis=0).shape[0] == edges.shape[0]

    def test_degree_distribution_roughly_preserved(self):
        degrees = sample_power_law_degrees(20_000, 2.0, dmax=2000, rng=8)
        graph = generate_configuration_model(degrees, rng=9)
        realised = np.array([d for _, d in graph.degree()])
        # the fraction of degree-1 nodes survives the stub pairing almost exactly
        assert np.mean(realised == 1) == pytest.approx(np.mean(degrees == 1), abs=0.03)

    def test_graph_has_all_nodes(self):
        degrees = np.array([0, 1, 1, 2, 2])
        graph = generate_configuration_model(degrees, rng=10)
        assert graph.number_of_nodes() == 5

    def test_empty_sequence(self):
        edges = configuration_model_edges(np.array([], dtype=np.int64), rng=0)
        assert edges.shape == (0, 2)

    def test_only_self_loops_gives_no_edges(self):
        edges = configuration_model_edges(np.array([0, 4, 0]), rng=0)
        assert edges.shape == (0, 2)

    @given(
        n_nodes=st.integers(1, 60),
        hubs=st.lists(st.integers(1, 300), min_size=1, max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n_nodes=3, hubs=[200, 150], seed=0)
    def test_dedupe_matches_np_unique_reference(self, n_nodes, hubs, seed):
        """A few hubs hold most stubs, so self-loops and multi-edges are
        common; the sort-and-mask dedupe keeps exactly np.unique's keys."""
        shape = np.random.default_rng(seed)
        degrees = shape.integers(0, 3, size=n_nodes + len(hubs))
        degrees[shape.choice(degrees.size, size=len(hubs), replace=False)] = hubs
        fast, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        np.testing.assert_array_equal(
            configuration_model_edges(degrees, rng=fast),
            _unique_configuration_model_edges(degrees, reference),
        )
        assert fast.bit_generator.state == reference.bit_generator.state


def _unique_configuration_model_edges(degrees: np.ndarray, gen: np.random.Generator) -> np.ndarray:
    """Stub pairing deduped by ``np.unique`` of the packed keys."""
    degrees = make_sum_even(degrees, rng=gen)
    stubs = np.repeat(np.arange(degrees.size, dtype=np.int64), degrees)
    if stubs.size == 0:
        return np.zeros((0, 2), dtype=np.int64)
    gen.shuffle(stubs)
    pairs = np.sort(stubs.reshape(-1, 2), axis=1)
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    keys = np.unique((pairs[:, 0] << 32) | pairs[:, 1])
    return np.column_stack([keys >> 32, keys & 0xFFFFFFFF])


def _upper_triangle_index(edges: np.ndarray, n_nodes: int) -> np.ndarray:
    """Row-major flat index of each ``(i, j)``, ``i < j``, in the upper triangle."""
    i, j = edges[:, 0], edges[:, 1]
    assert np.all((0 <= i) & (i < j) & (j < n_nodes))
    return i * n_nodes - i * (i + 1) // 2 + j - i - 1


class TestErdosRenyi:
    def test_p_zero_gives_no_edges(self):
        assert erdos_renyi_edges(100, 0.0, rng=0).shape == (0, 2)

    def test_p_one_gives_complete_graph(self):
        edges = erdos_renyi_edges(20, 1.0, rng=0)
        assert edges.shape[0] == 20 * 19 // 2

    def test_edge_count_matches_expectation_dense_path(self):
        n, p = 400, 0.05
        edges = erdos_renyi_edges(n, p, rng=1)
        expected = p * n * (n - 1) / 2
        assert edges.shape[0] == pytest.approx(expected, rel=0.1)

    def test_edge_count_matches_expectation_sparse_path(self):
        n, p = 20_000, 2e-5
        edges = erdos_renyi_edges(n, p, rng=2)
        expected = p * n * (n - 1) / 2
        assert edges.shape[0] == pytest.approx(expected, rel=0.15)

    def test_sparse_path_edges_valid(self):
        n = 10_000
        edges = erdos_renyi_edges(n, 5e-5, rng=3)
        assert edges.min() >= 0
        assert edges.max() < n
        assert np.all(edges[:, 0] < edges[:, 1])
        assert np.unique(edges, axis=0).shape[0] == edges.shape[0]

    def test_graph_wrapper_node_count(self):
        graph = generate_erdos_renyi(50, 0.1, rng=4)
        assert graph.number_of_nodes() == 50

    def test_mean_degree_poisson_like(self):
        graph = generate_erdos_renyi(2000, 0.005, rng=5)
        degrees = np.array([d for _, d in graph.degree()])
        assert degrees.mean() == pytest.approx(0.005 * 1999, rel=0.1)

    @pytest.mark.parametrize(
        "n_nodes, p, seeds", [(2000, 0.003, 10), (300, 0.3, 10), (40, 0.97, 40), (5000, 0.0008, 10)]
    )
    def test_edge_count_and_degree_moments_match_the_binomial(self, n_nodes, p, seeds):
        """Pooled over fixed seeds, the edge count is ``Binomial(n(n-1)/2, p)``
        and each degree ``Binomial(n - 1, p)`` in mean and variance."""
        pairs = n_nodes * (n_nodes - 1) // 2
        counts, degrees = [], []
        for seed in range(seeds):
            edges = erdos_renyi_edges(n_nodes, p, rng=seed)
            assert np.unique(_upper_triangle_index(edges, n_nodes)).size == edges.shape[0]
            counts.append(edges.shape[0])
            degrees.append(np.bincount(edges.ravel(), minlength=n_nodes))
        degrees = np.concatenate(degrees)
        assert abs(np.mean(counts) - pairs * p) <= 4 * math.sqrt(pairs * p * (1 - p) / seeds)
        mean, variance = (n_nodes - 1) * p, (n_nodes - 1) * p * (1 - p)
        assert abs(degrees.mean() - mean) <= 4 * math.sqrt(2 * variance / degrees.size)
        assert degrees.var() == pytest.approx(variance, rel=0.1)

    def test_row_inversion_matches_triu_indices(self):
        for n_nodes in range(2, 70):
            total_pairs = n_nodes * (n_nodes - 1) // 2
            pairs = erdos_renyi._pairs_of_flat(np.arange(total_pairs, dtype=np.int64), n_nodes)
            np.testing.assert_array_equal(pairs, np.column_stack(np.triu_indices(n_nodes, 1)))

    @pytest.mark.parametrize("n_nodes", [10**5, 10**7])
    def test_row_inversion_at_row_boundaries(self, n_nodes):
        """The first and last pair of rows near the start, middle and end of
        a large triangle, where the float inversion is tightest."""
        middle = n_nodes // 2
        rows = np.array([0, 1, 2, 3, middle - 1, middle, middle + 1, n_nodes - 4, n_nodes - 3, n_nodes - 2])
        first = rows * n_nodes - rows * (rows + 1) // 2
        last = first + (n_nodes - rows - 2)
        np.testing.assert_array_equal(
            erdos_renyi._pairs_of_flat(np.concatenate([first, last]), n_nodes),
            np.column_stack([np.tile(rows, 2), np.concatenate([rows + 1, np.full(rows.size, n_nodes - 1)])]),
        )

    def test_no_quadratic_transient_at_3000_nodes(self):
        erdos_renyi_edges(50, 0.1, rng=0)  # warm up numpy's lazy allocations
        tracemalloc.start()
        try:
            erdos_renyi_edges(3000, 0.002, rng=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one float64 per pair would be 34 MiB; the gaps are one int64 per edge
        assert peak < 4 * 2**20


class TestPoissonStars:
    def test_edge_and_node_counts_consistent(self):
        batch = poisson_star_edges(1000, 2.0, rng=0)
        assert batch.n_nodes == 1000 + batch.leaf_counts.sum()
        assert batch.edges.shape[0] == batch.leaf_counts.sum()

    def test_mean_leaf_count_matches_lambda(self):
        batch = poisson_star_edges(50_000, 3.0, rng=1)
        assert batch.leaf_counts.mean() == pytest.approx(3.0, rel=0.02)

    def test_isolated_fraction_matches_poisson_zero_probability(self):
        lam = 1.5
        batch = poisson_star_edges(50_000, lam, rng=2)
        assert batch.n_isolated / 50_000 == pytest.approx(np.exp(-lam), rel=0.05)

    def test_single_edge_star_fraction(self):
        lam = 1.5
        batch = poisson_star_edges(50_000, lam, rng=3)
        assert batch.n_single_edge_stars / 50_000 == pytest.approx(lam * np.exp(-lam), rel=0.05)

    def test_zero_stars(self):
        batch = poisson_star_edges(0, 2.0, rng=4)
        assert batch.n_nodes == 0
        assert batch.edges.shape == (0, 2)

    def test_graph_excludes_isolated_by_default(self):
        graph = generate_poisson_stars(2000, 0.5, rng=5)
        assert all(d >= 1 for _, d in graph.degree())

    def test_graph_keeps_isolated_when_requested(self):
        graph = generate_poisson_stars(2000, 0.5, keep_isolated=True, rng=6)
        isolated = [n for n, d in graph.degree() if d == 0]
        assert len(isolated) > 0

    def test_components_are_stars(self):
        graph = generate_poisson_stars(500, 2.0, rng=7)
        for component in nx.connected_components(graph):
            sub = graph.subgraph(component)
            # a star on k nodes has k-1 edges and max degree k-1
            assert sub.number_of_edges() == sub.number_of_nodes() - 1

    def test_lambda_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            poisson_star_edges(10, 30.0, rng=0)
