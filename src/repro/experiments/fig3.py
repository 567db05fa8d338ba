"""Figure 3 — measured distributions and Zipf–Mandelbrot model fits.

Each panel of the paper's Figure 3 shows the pooled differential cumulative
probability of one streaming quantity at one observatory/date/window, with
±1σ error bars and the best-fit modified Zipf–Mandelbrot model.  The
reproduction runs the synthetic scenario catalogue of
:mod:`repro.experiments.config` through the full pipeline (trace → windows →
``A_t`` → histograms → pooling → ZM fit) and reports, per panel:

* the fitted ``(α, δ)`` on the synthetic data,
* the paper's measured ``(α, δ)`` for the corresponding panel,
* the fraction of probability in the ``d = 1`` bin (the leaves/unattached
  signature highlighted by the red dots in the figure), and
* the pooled log-MSE of the ZM fit and of the single-exponent power-law
  baseline, demonstrating the ZM model's advantage on trunk-style data.
"""

from __future__ import annotations

from typing import Sequence

from repro.analysis.pooling import pool_probability_vector
from repro.analysis.comparison import pooled_relative_error
from repro.core.powerlaw_fit import fit_power_law
from repro.core.distributions import DiscretePowerLaw
from repro.experiments.config import FIG3_SCENARIOS, Scenario
from repro.generators.palu_graph import generate_palu_graph
from repro.streaming.pipeline import analyze_trace
from repro.streaming.trace_generator import TraceConfig, generate_trace_from_graph

__all__ = ["run_fig3_scenario", "run_fig3"]


def run_fig3_scenario(scenario: Scenario) -> dict:
    """Run one Figure-3 panel reproduction end to end.

    The in-memory trace is analysed on the serial window map, keeping no
    per-window results.  Returns a dict row with the fitted and paper
    parameters plus fit-quality diagnostics (see module docstring).
    """
    palu = generate_palu_graph(scenario.parameters, n_nodes=scenario.n_nodes, rng=scenario.seed)
    config = TraceConfig(
        n_packets=scenario.n_packets,
        rate_model="zipf",
        rate_exponent=scenario.rate_exponent,
    )
    trace = generate_trace_from_graph(palu, config, rng=scenario.seed + 1)
    analysis = analyze_trace(
        trace, scenario.n_valid, quantities=(scenario.quantity,), keep_windows=False
    )
    pooled = analysis.pooled(scenario.quantity)
    dmax = analysis.dmax(scenario.quantity)
    zm_fit = analysis.fit_zipf_mandelbrot(scenario.quantity)

    merged = analysis.merged_histogram(scenario.quantity)
    pl_fit = fit_power_law(merged, d_min=1)
    pl_model = DiscretePowerLaw(pl_fit.alpha, dmax)
    pl_error = pooled_relative_error(pooled, pool_probability_vector(pl_model.probabilities()))

    return {
        "scenario": scenario.name,
        "quantity": scenario.quantity,
        "NV": scenario.n_valid,
        "n_windows": analysis.n_windows,
        "alpha_fit": round(zm_fit.alpha, 3),
        "delta_fit": round(zm_fit.delta, 3),
        "alpha_paper": scenario.paper_alpha,
        "delta_paper": scenario.paper_delta,
        "D(d=1)": round(float(pooled.values[0]), 4),
        "dmax": dmax,
        "zm_log_mse": round(zm_fit.error, 5),
        "powerlaw_log_mse": round(pl_error, 5),
    }


def run_fig3(
    scenarios: Sequence[Scenario] = FIG3_SCENARIOS,
    *,
    limit: int | None = None,
) -> list:
    """Run the full Figure-3 scenario sweep (optionally the first *limit* panels)."""
    selected = list(scenarios)[: limit if limit is not None else len(list(scenarios))]
    return [run_fig3_scenario(s) for s in selected]
