"""Experiment drivers that regenerate the paper's tables and figures.

Each module corresponds to one table or figure of the paper (plus the
ablations called out in DESIGN.md) and exposes a ``run_*`` function returning
plain data rows, so the same code backs the ``benchmarks/`` harnesses, the
``examples/`` scripts, and EXPERIMENTS.md.

* :mod:`repro.experiments.config` — the synthetic scenario catalogue that
  stands in for the Tokyo/Chicago trace collections of Figure 3.
* :mod:`repro.experiments.table1` — aggregate network properties.
* :mod:`repro.experiments.fig1` — streaming network quantities.
* :mod:`repro.experiments.fig2` — traffic network topologies.
* :mod:`repro.experiments.fig3` — measured distributions and ZM fits.
* :mod:`repro.experiments.fig4` — PALU model curve families.
* :mod:`repro.experiments.palu_expectations` — Section-IV expectation checks.
* :mod:`repro.experiments.palu_recovery` — Section-IV-B parameter recovery.
* :mod:`repro.experiments.ablations` — window-size invariance, Λ-estimator
  variance, and webcrawl-vs-trunk observation contrasts.
"""

from repro._util.lazy import lazy_exports

__all__ = [
    "FIG3_SCENARIOS",
    "Scenario",
    "default_palu_parameters",
    "run_fig1",
    "run_fig2",
    "run_fig3",
    "run_fig3_scenario",
    "run_fig4",
    "run_table1",
    "run_palu_expectations",
    "run_palu_recovery",
    "run_lambda_estimator_ablation",
    "run_webcrawl_ablation",
    "run_window_invariance_ablation",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".config": ("FIG3_SCENARIOS", "Scenario", "default_palu_parameters"),
        ".fig1": ("run_fig1",),
        ".fig2": ("run_fig2",),
        ".fig3": ("run_fig3", "run_fig3_scenario"),
        ".fig4": ("run_fig4",),
        ".table1": ("run_table1",),
        ".palu_expectations": ("run_palu_expectations",),
        ".palu_recovery": ("run_palu_recovery",),
        ".ablations": (
            "run_lambda_estimator_ablation", "run_webcrawl_ablation",
            "run_window_invariance_ablation",
        ),
    },
)
