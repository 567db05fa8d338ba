"""Benchmark: Figure 3 — measured distributions and Zipf–Mandelbrot fits.

Runs the synthetic scenario catalogue (one scenario per annotated panel of
Figure 3) through the full pipeline and times (a) a representative
single-panel reproduction, (b) the ZM fitting kernel on pooled data, and
(c) the windowed-analysis pipeline with and without worker processes.
The printed rows mirror the per-panel (α, δ) annotations of the figure.
"""

from __future__ import annotations

import pytest

from repro.analysis.pooling import pool_differential_cumulative
from repro.core.zm_fit import fit_zipf_mandelbrot
from repro.experiments import FIG3_SCENARIOS, run_fig3, run_fig3_scenario
from repro.experiments.config import default_palu_parameters
from repro.generators.palu_graph import generate_palu_graph
from repro.streaming.pipeline import analyze_trace
from repro.streaming.trace_generator import generate_trace

# the full Figure-3 sweep takes ~10s — deselected by `pytest -m "not slow"` (fast local loop)
pytestmark = pytest.mark.slow



def test_fig3_single_panel(run_once):
    row = run_once(run_fig3_scenario, FIG3_SCENARIOS[0])
    assert row["zm_log_mse"] < row["powerlaw_log_mse"]
    print()
    print("Figure 3 panel:", row)


def test_fig3_full_sweep(run_once):
    rows = run_once(run_fig3)
    assert len(rows) == len(FIG3_SCENARIOS)
    # the ZM model must beat the single-exponent baseline on every panel
    assert all(r["zm_log_mse"] <= r["powerlaw_log_mse"] for r in rows)
    # fitted exponents stay in the paper's observed range
    assert all(1.0 < r["alpha_fit"] < 3.5 for r in rows)
    print()
    for row in rows:
        print("Figure 3:", row)


@pytest.fixture(scope="module")
def pooled_observation():
    params = default_palu_parameters()
    graph = generate_palu_graph(params, n_nodes=20_000, rng=11)
    trace = generate_trace(graph.graph, 200_000, rate_model="zipf", rng=12)
    analysis = analyze_trace(trace, 100_000)
    hist = analysis.merged_histogram("source_fanout")
    return pool_differential_cumulative(hist), hist.dmax


def test_zm_fit_kernel(benchmark, pooled_observation):
    pooled, dmax = pooled_observation
    fit = benchmark(fit_zipf_mandelbrot, pooled, dmax)
    assert 1.0 < fit.alpha < 4.0


@pytest.mark.parametrize("n_workers", [1, 4])
def test_pipeline_throughput(benchmark, n_workers):
    """Window-analysis throughput, serial vs multiprocessing."""
    params = default_palu_parameters()
    graph = generate_palu_graph(params, n_nodes=20_000, rng=13)
    trace = generate_trace(graph.graph, 400_000, rate_model="zipf", rng=14)
    result = benchmark.pedantic(
        analyze_trace, args=(trace, 50_000), kwargs={"n_workers": n_workers}, rounds=1, iterations=1
    )
    assert result.n_windows == 8
