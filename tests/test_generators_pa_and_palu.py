"""Unit tests for preferential attachment, the PALU graph builder, and sampling."""

from __future__ import annotations

import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.histogram import degree_histogram
from repro.core.palu_model import PALUParameters
from repro.core.powerlaw_fit import fit_discrete_mle
from repro.generators.configuration_model import configuration_model_edges
from repro.generators.degree_sequence import sample_power_law_degrees
from repro.generators.palu_graph import generate_palu_graph
from repro.generators.poisson_stars import poisson_star_edges
from repro.generators.preferential_attachment import (
    _choice_without_replacement,
    _copying_growth,
    _dense_growth,
    _shifted_growth,
    attachment_shift_for_alpha,
    generate_preferential_attachment,
    generate_shifted_preferential_attachment,
    shifted_preferential_attachment_edges,
)
from repro.generators.sampling import node_sample, sample_edges, sample_edges_array, webcrawl_sample


class TestPreferentialAttachment:
    def test_node_and_edge_counts(self):
        g = generate_preferential_attachment(500, 2, rng=0)
        assert g.number_of_nodes() == 500
        # each new node adds m edges; the seed star adds m
        assert g.number_of_edges() == pytest.approx(2 * 500, rel=0.05)

    def test_connected(self):
        g = generate_preferential_attachment(300, 1, rng=1)
        assert nx.is_connected(g)

    def test_heavy_tail_exponent_near_three(self):
        g = generate_preferential_attachment(20_000, 2, rng=2)
        hist = degree_histogram([d for _, d in g.degree()])
        fit = fit_discrete_mle(hist, d_min=8)
        assert 2.4 < fit.alpha < 3.6

    def test_rich_get_richer(self):
        g = generate_preferential_attachment(5000, 1, rng=3)
        degrees = np.array([d for _, d in g.degree()])
        # early nodes accumulate much higher degree than late nodes
        assert degrees[:50].mean() > 5 * degrees[-1000:].mean()

    def test_m_too_large_rejected(self):
        with pytest.raises(ValueError):
            generate_preferential_attachment(5, 5, rng=0)

    def test_reproducible(self):
        a = generate_preferential_attachment(200, 1, rng=7)
        b = generate_preferential_attachment(200, 1, rng=7)
        assert sorted(a.edges()) == sorted(b.edges())


class TestShiftedPreferentialAttachment:
    def test_shift_formula(self):
        assert attachment_shift_for_alpha(3.0, 1) == pytest.approx(0.0)
        assert attachment_shift_for_alpha(2.5, 2) == pytest.approx(-1.0)

    def test_unreachable_alpha_rejected(self):
        with pytest.raises(ValueError):
            attachment_shift_for_alpha(1.9, 1)

    def test_must_give_exactly_one_of_alpha_or_shift(self):
        with pytest.raises(ValueError):
            generate_shifted_preferential_attachment(100, 1, rng=0)
        with pytest.raises(ValueError):
            generate_shifted_preferential_attachment(100, 1, alpha=2.5, shift=0.0, rng=0)

    def test_lower_alpha_gives_heavier_tail(self):
        heavy = generate_shifted_preferential_attachment(8000, 1, alpha=2.2, rng=4)
        light = generate_shifted_preferential_attachment(8000, 1, alpha=3.0, rng=4)
        dmax_heavy = max(d for _, d in heavy.degree())
        dmax_light = max(d for _, d in light.degree())
        assert dmax_heavy > dmax_light

    def test_graph_size(self):
        g = generate_shifted_preferential_attachment(500, 1, alpha=2.5, rng=5)
        assert g.number_of_nodes() == 500

    @pytest.mark.parametrize("m_edges", [1, 2, 3])
    def test_edge_array_is_the_graphs_edge_list(self, m_edges):
        g = generate_shifted_preferential_attachment(300, m_edges, alpha=2.5, rng=6)
        edges = shifted_preferential_attachment_edges(300, m_edges, alpha=2.5, rng=6)
        assert edges.dtype == np.int64
        assert edges.tolist() == [list(e) for e in g.edges()]

    @pytest.mark.parametrize("seed", range(40))
    def test_choice_replica_matches_numpy(self, seed):
        """The growth loop's weighted draw replays ``Generator.choice``: same
        result and the same generator state afterwards."""
        r = np.random.default_rng(seed)
        n = int(r.integers(1, 40))
        size = int(r.integers(1, n + 1))
        weights = r.random(n) ** 3
        weights[r.random(n) < 0.3] = 0.0
        weights[:size] += 0.1  # at least `size` non-zero entries
        p = weights / weights.sum()
        library, replica = np.random.default_rng(seed + 1000), np.random.default_rng(seed + 1000)
        expected = library.choice(n, size=size, replace=False, p=p)
        np.testing.assert_array_equal(_choice_without_replacement(p.copy(), size, replica), expected)
        assert library.random() == replica.random()

    @pytest.mark.parametrize("shift", [-0.9, 0.0, 2.0])
    def test_copying_growth_degree_frequencies_match_dense(self, shift):
        """Pooled over fixed seeds, the copying model's degree frequencies
        are those of the dense ``d + a`` kernel."""
        n_nodes, seeds, top = 2_000, range(8), 6
        copying, dense = np.zeros(top + 1), np.zeros(top + 1)
        for seed in seeds:
            for pooled, targets in (
                (copying, _copying_growth(n_nodes, shift, np.random.default_rng(seed))),
                (dense, _dense_growth(n_nodes, 1, shift, np.random.default_rng(seed))),
            ):
                degrees = _growth_degrees(targets)
                pooled += np.bincount(np.minimum(degrees, top), minlength=top + 1)
        np.testing.assert_allclose(copying / copying.sum(), dense / dense.sum(), atol=0.01)

    @pytest.mark.parametrize("shift", [-0.5, 0.0, 1.5])
    def test_copying_growth_follows_the_kernel_exactly_at_five_nodes(self, shift):
        """Every target sequence of a 5-node growth turns up as often as the
        product of its steps' ``(d_i + a) / W`` says."""
        gen = np.random.default_rng(17)
        runs = 12_000
        counts: dict[tuple, int] = {}
        for _ in range(runs):
            key = tuple(_copying_growth(5, shift, gen).tolist())
            counts[key] = counts.get(key, 0) + 1
        for sequence, probability in _kernel_sequence_probabilities(5, shift).items():
            observed = counts.pop(sequence, 0) / runs
            assert abs(observed - probability) <= 4.5 * math.sqrt(probability * (1 - probability) / runs)
        assert counts == {}

    @pytest.mark.parametrize("n_nodes", [2, 3, 500])
    @pytest.mark.parametrize("shift", [-1.0 + 2.0**-52, -0.5, 0.0, 3.0])
    def test_copying_growth_leaves_the_dense_generator_state(self, n_nodes, shift):
        copying, dense = np.random.default_rng(5), np.random.default_rng(5)
        _copying_growth(n_nodes, shift, copying)
        _dense_growth(n_nodes, 1, shift, dense)
        assert copying.bit_generator.state == dense.bit_generator.state

    @pytest.mark.parametrize("shift", [-1.0 + 2.0**-52, -1.0 + 1e-9, 50.0])
    def test_extreme_shifts_give_valid_targets(self, shift):
        n_nodes = 3_000
        targets = _copying_growth(n_nodes, shift, np.random.default_rng(9))
        assert targets.shape == (n_nodes - 1,)
        # step s = k + 1 attaches to one of the nodes 0..s-1 already there
        assert targets.min() >= 0
        assert np.all(targets <= np.arange(n_nodes - 1))

    @given(
        n_nodes=st.integers(4, 400),
        m_edges=st.integers(1, 3),
        alpha=st.floats(2.1, 4.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_packed_key_order_matches_lexsort(self, n_nodes, m_edges, alpha, seed):
        fast, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        edges = shifted_preferential_attachment_edges(n_nodes, m_edges, alpha=alpha, rng=fast)
        np.testing.assert_array_equal(
            edges, _lexsorted_pa_edges(n_nodes, m_edges, alpha, reference)
        )
        assert fast.bit_generator.state == reference.bit_generator.state


def _growth_degrees(targets: np.ndarray) -> np.ndarray:
    """Node degrees after single-edge growth with arrival-ordered *targets*."""
    degrees = np.bincount(targets, minlength=targets.size + 1) + 1
    degrees[0] -= 1  # node 0 only ever receives edges, the seed edge first
    return degrees


def _kernel_sequence_probabilities(n_nodes: int, shift: float) -> dict[tuple, float]:
    """Exact probability of every single-edge target sequence under ``d + a``."""
    sequences = {(0,): 1.0}
    for source in range(2, n_nodes):
        grown = {}
        for sequence, probability in sequences.items():
            weights = _growth_degrees(np.array(sequence)) + shift
            for node in range(source):
                grown[sequence + (node,)] = probability * weights[node] / weights.sum()
        sequences = grown
    return sequences


def _lexsorted_pa_edges(
    n_nodes: int, m_edges: int, alpha: float, gen: np.random.Generator
) -> np.ndarray:
    """Growth rows ordered by ``np.lexsort`` on ``(target, source)``."""
    sources, targets = _shifted_growth(n_nodes, m_edges, alpha, None, gen)
    order = np.lexsort((sources, targets))
    return np.column_stack([targets[order], sources[order]])


def _lexsorted_palu_edges(
    parameters: PALUParameters, n_nodes: int, core_model: str, gen: np.random.Generator
) -> np.ndarray:
    """PALU edges with the core, leaf merge and PA order all by ``np.lexsort``."""
    n_core = int(round(parameters.core * n_nodes))
    n_leaves = int(round(parameters.leaves * n_nodes))
    n_centres = int(round(parameters.unattached * n_nodes))
    if n_core < 2:
        edges = np.zeros((0, 2), dtype=np.int64)
    elif core_model == "configuration":
        dmax = max(1000, n_core)
        degrees = sample_power_law_degrees(n_core, parameters.alpha, dmax=dmax, rng=gen)
        edges = configuration_model_edges(degrees, rng=gen)
    else:
        edges = _lexsorted_pa_edges(n_core, 1, parameters.alpha, gen)
    if n_leaves > 0 and n_core > 0:
        weights = np.bincount(edges.ravel(), minlength=n_core) + 1.0
        weights /= weights.sum()
        anchors = gen.choice(n_core, size=n_leaves, replace=True, p=weights)
        lo = np.concatenate([edges[:, 0], anchors])
        hi = np.concatenate([edges[:, 1], np.arange(n_core, n_core + n_leaves)])
        order = np.lexsort((hi, lo))
        edges = np.column_stack([lo[order], hi[order]])
    stars = poisson_star_edges(n_centres, parameters.lam, rng=gen)
    return np.concatenate([edges, stars.edges + n_core + n_leaves])


class TestPALUGraph:
    @pytest.fixture(scope="class")
    def params(self) -> PALUParameters:
        return PALUParameters.from_weights(0.5, 0.25, 0.25, lam=2.0, alpha=2.0)

    def test_class_counts_match_proportions(self, params):
        palu = generate_palu_graph(params, n_nodes=30_000, rng=0)
        counts = palu.class_counts()
        assert counts["core"] == pytest.approx(params.core * 30_000, rel=0.01)
        assert counts["leaves"] == pytest.approx(params.leaves * 30_000, rel=0.01)
        assert counts["star_centres"] == pytest.approx(params.unattached * 30_000, rel=0.01)
        # star leaves are Poisson(lambda) per centre
        assert counts["star_leaves"] == pytest.approx(
            params.unattached * 30_000 * params.lam, rel=0.05
        )

    def test_classes_are_disjoint(self, params):
        palu = generate_palu_graph(params, n_nodes=5000, rng=1)
        all_ids = np.concatenate(
            [palu.core_nodes, palu.leaf_nodes, palu.star_centres, palu.star_leaves]
        )
        assert np.unique(all_ids).size == all_ids.size

    def test_leaves_have_degree_one_into_core(self, params):
        palu = generate_palu_graph(params, n_nodes=5000, rng=2)
        core_set = set(palu.core_nodes.tolist())
        for leaf in palu.leaf_nodes[:200]:
            neighbors = list(palu.graph.neighbors(int(leaf)))
            assert len(neighbors) == 1
            assert neighbors[0] in core_set

    def test_star_components_disconnected_from_core(self, params):
        palu = generate_palu_graph(params, n_nodes=5000, rng=3)
        centre_set = set(palu.star_centres.tolist()) | set(palu.star_leaves.tolist())
        for centre in palu.star_centres[:200]:
            for neighbor in palu.graph.neighbors(int(centre)):
                assert neighbor in centre_set

    def test_core_degree_distribution_is_heavy_tailed(self, params):
        palu = generate_palu_graph(params, n_nodes=40_000, rng=4)
        core_degrees = np.array([palu.graph.degree(int(n)) for n in palu.core_nodes])
        core_degrees = core_degrees[core_degrees > 0]
        hist = degree_histogram(core_degrees)
        fit = fit_discrete_mle(hist, d_min=5)
        # the core carries the zeta(alpha=2) law plus leaf attachments
        assert 1.6 < fit.alpha < 2.4

    def test_preferential_attachment_core_option(self):
        # the growth-process core can only reach alpha > 2 (shift > -m), so use 2.5
        params = PALUParameters.from_weights(0.5, 0.25, 0.25, lam=2.0, alpha=2.5)
        palu = generate_palu_graph(params, n_nodes=2000, core_model="preferential-attachment", rng=5)
        assert palu.n_nodes > 1500

    def test_preferential_attachment_core_rejects_unreachable_alpha(self, params):
        # params fixture has alpha = 2.0, outside the growth model's reachable range
        with pytest.raises(ValueError, match="unreachable"):
            generate_palu_graph(params, n_nodes=1000, core_model="preferential-attachment", rng=5)

    def test_unknown_core_model_rejected(self, params):
        with pytest.raises(ValueError):
            generate_palu_graph(params, n_nodes=1000, core_model="random", rng=0)

    def test_edges_array_shape(self, params):
        palu = generate_palu_graph(params, n_nodes=2000, rng=6)
        edges = palu.edges_array()
        assert edges.shape[1] == 2
        assert edges.shape[0] == palu.n_edges

    def test_edges_array_is_the_graphs_edge_list(self, params):
        palu = generate_palu_graph(params, n_nodes=2000, rng=8)
        assert palu.edges_array().tolist() == [list(e) for e in palu.graph.edges()]
        assert list(palu.graph.nodes()) == list(range(palu.n_nodes))
        assert palu.graph is palu.graph  # built once, on first access

    def test_class_of_mapping_covers_all_nodes(self, params):
        palu = generate_palu_graph(params, n_nodes=2000, rng=7)
        mapping = palu.class_of()
        assert len(mapping) == palu.n_nodes

    @given(
        weights=st.tuples(*[st.floats(0.0, 1.0)] * 3).filter(lambda w: w[0] > 0.05),
        lam=st.floats(0.5, 4.0),
        alpha=st.floats(2.1, 3.0),
        n_nodes=st.integers(10, 2000),
        core_model=st.sampled_from(["configuration", "preferential-attachment"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_packed_key_merge_matches_lexsort(self, weights, lam, alpha, n_nodes, core_model, seed):
        params = PALUParameters.from_weights(*weights, lam=lam, alpha=alpha)
        fast, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        palu = generate_palu_graph(params, n_nodes, core_model=core_model, rng=fast)
        np.testing.assert_array_equal(
            palu.edges, _lexsorted_palu_edges(params, n_nodes, core_model, reference)
        )
        assert fast.bit_generator.state == reference.bit_generator.state

    def test_seed_alias(self, params):
        a = generate_palu_graph(params, n_nodes=1000, seed=42)
        b = generate_palu_graph(params, n_nodes=1000, rng=42)
        assert a.n_edges == b.n_edges


class TestSampling:
    def test_sample_edges_array_thinning_rate(self):
        edges = np.arange(20_000).reshape(-1, 2)
        kept = sample_edges_array(edges, 0.3, rng=0)
        assert kept.shape[0] == pytest.approx(0.3 * 10_000, rel=0.1)

    def test_sample_edges_array_p_one_identity(self):
        edges = np.arange(10).reshape(-1, 2)
        np.testing.assert_array_equal(sample_edges_array(edges, 1.0, rng=0), edges)

    def test_sample_edges_array_p_zero_empty(self):
        edges = np.arange(10).reshape(-1, 2)
        assert sample_edges_array(edges, 0.0, rng=0).shape[0] == 0

    def test_sample_edges_graph_drops_isolated_nodes(self):
        g = nx.star_graph(50)
        observed = sample_edges(g, 0.5, rng=1)
        assert all(d >= 1 for _, d in observed.degree())
        assert observed.number_of_edges() < 50

    def test_sample_edges_keeps_edge_fraction(self, small_palu_graph):
        observed = sample_edges(small_palu_graph.graph, 0.4, rng=2)
        assert observed.number_of_edges() == pytest.approx(0.4 * small_palu_graph.n_edges, rel=0.07)

    def test_node_sample_subgraph(self):
        g = nx.complete_graph(100)
        sampled = node_sample(g, 0.3, rng=3)
        assert 10 <= sampled.number_of_nodes() <= 55

    def test_webcrawl_returns_connected_view_from_hub(self):
        g = _hub_with_debris()
        crawled = webcrawl_sample(g, n_seeds=1)
        assert nx.is_connected(crawled)
        # the isolated edge (900, 901) is invisible to the crawl
        assert 900 not in crawled

    def test_webcrawl_misses_unattached_components(self, small_palu_graph):
        crawled = webcrawl_sample(small_palu_graph.graph, n_seeds=3)
        star_nodes = set(small_palu_graph.star_centres.tolist())
        crawled_stars = star_nodes & set(crawled.nodes())
        assert len(crawled_stars) == 0

    def test_webcrawl_max_nodes_cap(self):
        g = nx.path_graph(1000)
        crawled = webcrawl_sample(g, seeds=[0], max_nodes=50)
        assert crawled.number_of_nodes() == 50

    def test_webcrawl_unknown_seed_rejected(self):
        with pytest.raises(ValueError):
            webcrawl_sample(nx.path_graph(5), seeds=[99])

    def test_webcrawl_empty_graph(self):
        assert webcrawl_sample(nx.Graph()).number_of_nodes() == 0


def _hub_with_debris() -> nx.Graph:
    g = nx.star_graph(40)
    g.add_edges_from([(1, 100), (100, 101)])
    g.add_edge(900, 901)  # unattached link
    return g
