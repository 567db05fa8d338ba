"""Micro-benchmarks of the substrate kernels.

These are not tied to a specific table or figure; they track the performance
of the hot paths every experiment goes through — trace generation, windowing,
degree histogramming, pooling, sampling from the discrete distributions,
graph synthesis, and the zeta normalisers — so regressions in the vectorised
kernels are caught by ``pytest benchmarks/ --benchmark-only``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.histogram import degree_histogram
from repro.analysis.pooling import pool_differential_cumulative
from repro.core.distributions import PALUDegreeDistribution, ZipfMandelbrotDistribution
from repro.core.zeta import riemann_zeta, truncated_hurwitz
from repro.experiments.config import default_palu_parameters
from repro.generators.configuration_model import configuration_model_edges
from repro.generators.degree_sequence import sample_power_law_degrees
from repro.generators.erdos_renyi import erdos_renyi_edges
from repro.generators.palu_graph import generate_palu_graph
from repro.generators.preferential_attachment import shifted_preferential_attachment_edges
from repro.generators.sampling import sample_edges_array
from repro.scenarios.source import DEFAULT_BLOCK_PACKETS
from repro.streaming.trace_generator import (
    TraceConfig,
    TrafficSubstrate,
    edge_rate_weights,
    emit_packets,
    generate_trace,
)
from repro.streaming.trace_io import ANALYSIS_COLUMNS
from repro.streaming.window import window_boundaries


@pytest.fixture(scope="module")
def palu_graph():
    return generate_palu_graph(default_palu_parameters(), n_nodes=30_000, rng=1)


@pytest.fixture(scope="module")
def big_trace(palu_graph):
    return generate_trace(palu_graph.graph, 500_000, rate_model="zipf", rng=2)


def test_trace_generation_500k_packets(benchmark, palu_graph):
    trace = benchmark.pedantic(
        generate_trace, args=(palu_graph.graph, 500_000), kwargs={"rng": 3}, rounds=1, iterations=2
    )
    assert trace.n_packets == 500_000


def test_window_boundary_computation(benchmark, big_trace):
    boundaries = benchmark(window_boundaries, big_trace, 100_000)
    assert boundaries.size == 6


def test_degree_histogram_of_million_values(benchmark):
    values = ZipfMandelbrotDistribution(2.0, -0.5, 100_000).sample(1_000_000, rng=4)
    hist = benchmark(degree_histogram, values)
    assert hist.total == 1_000_000


def test_log_pooling_kernel(benchmark):
    hist = degree_histogram(ZipfMandelbrotDistribution(2.0, -0.5, 100_000).sample(1_000_000, rng=5))
    pooled = benchmark(pool_differential_cumulative, hist)
    assert abs(pooled.probability_sum() - 1.0) < 1e-9


def test_inverse_cdf_sampling_kernel(benchmark):
    dist = PALUDegreeDistribution(c=0.3, l=0.4, u=0.05, alpha=2.0, Lambda=2.5, dmax=100_000)
    sample = benchmark(dist.sample, 1_000_000, rng=6)
    assert sample.size == 1_000_000


def test_configuration_model_kernel(benchmark):
    degrees = sample_power_law_degrees(100_000, 2.0, dmax=10_000, rng=7)
    edges = benchmark(configuration_model_edges, degrees, rng=8)
    assert edges.shape[0] > 0


def test_erdos_renyi_generator_mix_phase(benchmark):
    # generator-mix's first phase: geometric skipping, one gap per edge
    edges = benchmark(erdos_renyi_edges, 2_000, 0.003, rng=11)
    assert edges.shape[0] > 0


def test_shifted_preferential_attachment_10k_nodes(benchmark):
    # the single-edge copying model is O(n log n) numpy; the dense per-step
    # kernel draw that m_edges > 1 still uses is O(n²)
    edges = benchmark.pedantic(
        shifted_preferential_attachment_edges,
        args=(10_000, 1),
        kwargs={"alpha": 2.5, "rng": 10},
        rounds=5,
        iterations=1,
    )
    assert edges.shape == (9_999, 2)


@pytest.mark.parametrize("columns", [None, ANALYSIS_COLUMNS], ids=["full", "analysis"])
def test_packet_emission_block(benchmark, palu_graph, columns):
    # one scenario generation block over a fixed substrate; the analysis
    # columns skip the inter-arrival and size draws
    config = TraceConfig(n_packets=DEFAULT_BLOCK_PACKETS, rate_model="zipf", invalid_fraction=0.05)
    edges = palu_graph.edges_array()
    substrate = TrafficSubstrate.build(
        edges, edge_rate_weights(edges.shape[0], config, np.random.default_rng(12))
    )
    n = DEFAULT_BLOCK_PACKETS

    def emit():
        return emit_packets(n, substrate, config, np.random.default_rng(13), columns=columns)

    records = benchmark(emit)
    assert records.size == n
    if benchmark.stats is not None:
        benchmark.extra_info["ns_per_packet"] = benchmark.stats.stats.median / n * 1e9


def test_edge_sampling_kernel(benchmark):
    edges = np.column_stack(
        [np.arange(1_000_000, dtype=np.int64), np.arange(1, 1_000_001, dtype=np.int64)]
    )
    kept = benchmark(sample_edges_array, edges, 0.5, 9)
    assert 0.45 * 1_000_000 < kept.shape[0] < 0.55 * 1_000_000


def test_zeta_evaluation_kernel(benchmark):
    alphas = np.linspace(1.5, 3.0, 256)
    values = benchmark(riemann_zeta, alphas)
    assert np.all(values > 1.0)


def test_truncated_hurwitz_kernel(benchmark):
    value = benchmark(truncated_hurwitz, 2.1, -0.5, 10_000_000)
    assert value > 0
