"""Unit tests for trace generation, the parallel map, and the analysis pipeline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.streaming.aggregates import QUANTITY_NAMES
from repro.streaming.packet import PacketTrace
from repro.streaming.parallel import ProcessBackend, SerialBackend, default_worker_count
from repro.streaming.pipeline import WindowedAnalysis, analyze_trace, analyze_window
from repro.streaming.trace_generator import (
    TraceConfig,
    effective_window_p,
    generate_trace,
    generate_trace_from_graph,
)
from repro.streaming.window import iter_windows


class TestTraceGenerator:
    def test_packet_count(self, small_palu_graph):
        trace = generate_trace(small_palu_graph.graph, 5000, rng=0)
        assert trace.n_packets == 5000
        assert trace.n_valid == 5000

    def test_endpoints_come_from_graph(self, small_palu_graph):
        trace = generate_trace(small_palu_graph.graph, 2000, rng=1)
        nodes = set(small_palu_graph.graph.nodes())
        assert set(trace.unique_endpoints().tolist()) <= nodes

    def test_timestamps_monotone(self, small_palu_graph):
        trace = generate_trace(small_palu_graph.graph, 2000, rng=2)
        assert np.all(np.diff(trace.packets["time"]) >= 0)

    def test_invalid_fraction(self, small_palu_graph):
        config = TraceConfig(n_packets=20_000, invalid_fraction=0.2)
        trace = generate_trace_from_graph(small_palu_graph.graph, config, rng=3)
        assert trace.n_valid == pytest.approx(0.8 * 20_000, rel=0.05)

    def test_palu_graph_accepted_directly(self, small_palu_graph):
        trace = generate_trace(small_palu_graph, 1000, rng=4)
        assert trace.n_packets == 1000

    def test_edge_array_accepted(self):
        edges = np.array([[0, 1], [1, 2], [2, 3]])
        trace = generate_trace(edges, 500, rng=5)
        assert trace.n_packets == 500

    def test_zipf_rate_model_concentrates_traffic(self, small_palu_graph):
        uniform = generate_trace(small_palu_graph.graph, 50_000, rate_model="uniform", rng=6)
        zipf = generate_trace(
            small_palu_graph.graph, 50_000, rate_model="zipf", rate_exponent=1.6, rng=6
        )

        def top_link_share(trace: PacketTrace) -> float:
            pairs = trace.packets["src"] * 10**9 + trace.packets["dst"]
            _, counts = np.unique(pairs, return_counts=True)
            return counts.max() / counts.sum()

        assert top_link_share(zipf) > 3 * top_link_share(uniform)

    def test_lognormal_rate_model_runs(self, small_palu_graph):
        config = TraceConfig(n_packets=5000, rate_model="lognormal", lognormal_sigma=2.0)
        trace = generate_trace_from_graph(small_palu_graph.graph, config, rng=7)
        assert trace.n_packets == 5000

    def test_unknown_rate_model_rejected(self):
        with pytest.raises(ValueError):
            TraceConfig(n_packets=100, rate_model="pareto")

    def test_empty_graph_rejected(self):
        import networkx as nx

        with pytest.raises(ValueError):
            generate_trace(nx.Graph(), 100, rng=0)

    def test_effective_window_p_formula(self, small_palu_graph):
        m = small_palu_graph.n_edges
        p = effective_window_p(small_palu_graph, n_valid=m)
        assert p == pytest.approx(1 - np.exp(-1.0), rel=1e-6)

    def test_effective_window_p_monotone_in_nv(self, small_palu_graph):
        ps = [effective_window_p(small_palu_graph, n_valid=n) for n in (1000, 10_000, 100_000)]
        assert ps[0] < ps[1] < ps[2]

    def test_window_observation_matches_effective_p(self, small_palu_graph):
        """A window of N_V uniform packets observes ~p fraction of the edges."""
        n_valid = 20_000
        trace = generate_trace(small_palu_graph.graph, n_valid, rate_model="uniform", rng=8)
        from repro.streaming.sparse_image import traffic_image

        image = traffic_image(trace)
        # distinct undirected links observed (direction was randomised)
        links = image.undirected_edges()
        links = np.unique(np.sort(links, axis=1), axis=0)
        p_expected = effective_window_p(small_palu_graph, n_valid=n_valid)
        observed_fraction = links.shape[0] / small_palu_graph.n_edges
        assert observed_fraction == pytest.approx(p_expected, rel=0.05)


class TestParallelMap:
    def test_serial_matches_parallel(self, small_trace):
        windows = list(iter_windows(small_trace, 20_000))
        serial = list(SerialBackend().map(analyze_window, windows))
        parallel = list(ProcessBackend(2).map(analyze_window, windows))
        assert len(serial) == len(parallel)
        for a, b in zip(serial, parallel):
            assert a.aggregates == b.aggregates

    def test_empty_input(self):
        assert list(ProcessBackend(2).map(analyze_window, [])) == []

    def test_default_worker_count_positive(self):
        assert default_worker_count() >= 1


class TestPipeline:
    def test_analyze_trace_window_count(self, small_trace):
        analysis = analyze_trace(small_trace, 30_000)
        assert analysis.n_windows == small_trace.n_valid // 30_000

    def test_quantities_restricted(self, small_trace):
        analysis = analyze_trace(small_trace, 50_000, quantities=("source_packets",))
        assert analysis.quantities == ("source_packets",)
        with pytest.raises(KeyError):
            analysis.pooled("link_packets")

    def test_unknown_quantity_rejected(self, small_trace):
        with pytest.raises(ValueError):
            analyze_trace(small_trace, 50_000, quantities=("bogus",))

    def test_no_complete_window_rejected(self, small_trace):
        with pytest.raises(ValueError):
            analyze_trace(small_trace, 10**9)

    def test_pooled_probability_conserved(self, small_trace):
        analysis = analyze_trace(small_trace, 30_000)
        for quantity in QUANTITY_NAMES:
            pooled = analysis.pooled(quantity)
            assert pooled.probability_sum() == pytest.approx(1.0)
            assert pooled.sigma is not None

    def test_merged_histogram_total(self, small_trace):
        analysis = analyze_trace(small_trace, 30_000)
        merged = analysis.merged_histogram("link_packets")
        per_window = sum(w.histograms["link_packets"].total for w in analysis.windows)
        assert merged.total == per_window

    def test_aggregates_table_rows(self, small_trace):
        analysis = analyze_trace(small_trace, 30_000)
        rows = analysis.aggregates_table()
        assert len(rows) == analysis.n_windows
        assert all(row["valid_packets"] == 30_000 for row in rows)

    def test_zm_fit_from_pipeline(self, small_trace):
        analysis = analyze_trace(small_trace, 30_000)
        fit = analysis.fit_zipf_mandelbrot("source_fanout")
        assert 1.0 < fit.alpha < 4.0
        assert fit.dmax == analysis.dmax("source_fanout")

    def test_hand_built_analysis(self, small_trace):
        windows = [analyze_window(w) for w in iter_windows(small_trace, 40_000)]
        analysis = WindowedAnalysis(n_valid=40_000, windows=tuple(windows), quantities=("source_fanout",))
        assert analysis.n_windows == len(windows)
        assert analysis == analyze_trace(small_trace, 40_000, quantities=("source_fanout",))

    def test_dmax_consistency(self, small_trace):
        analysis = analyze_trace(small_trace, 30_000)
        dmax = analysis.dmax("source_packets")
        assert dmax == max(w.histograms["source_packets"].dmax for w in analysis.windows)
