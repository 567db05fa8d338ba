#!/usr/bin/env python
"""Regenerate every table and figure of the paper in one run.

Runs the full experiment catalogue (Table I, Figures 1–4, the Section-IV
expectation checks, the Section-IV-B recovery, and the three ablations) on
laptop-scale synthetic workloads and prints the resulting rows.  This is the
script behind EXPERIMENTS.md; the pytest-benchmark harnesses in
``benchmarks/`` run the same drivers with timing attached.

Run with ``python examples/figure_reproduction.py [--quick]``.
"""

from __future__ import annotations

import argparse

from repro.analysis.summary import format_table
from repro.experiments import (
    run_fig1,
    run_fig2,
    run_fig3,
    run_fig4,
    run_lambda_estimator_ablation,
    run_palu_expectations,
    run_palu_recovery,
    run_table1,
    run_webcrawl_ablation,
    run_window_invariance_ablation,
)


# Examples honour REPRO_EXAMPLE_SCALE in (0, 1] so the docs smoke test
# (tests/test_examples.py) can execute them at tiny sizes.
from repro._util.examples import example_scale  # noqa: E402

SCALE = example_scale()


def section(title: str) -> None:
    print(f"\n{'=' * 78}\n{title}\n{'=' * 78}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="run a reduced sweep (fewer Figure-3 panels, smaller samples)",
    )
    args = parser.parse_args()
    quick = args.quick or SCALE < 1
    fig3_limit = (1 if SCALE < 1 else 3) if quick else None
    n_samples = max(50_000, int((300_000 if quick else 1_000_000) * SCALE))

    section("Table I — aggregate network properties (matrix vs summation notation)")
    print(format_table(run_table1()))

    section("Figure 1 — streaming network quantities of one N_V window")
    print(format_table(run_fig1()))

    section("Figure 2 — traffic network topologies across class mixes")
    print(format_table(run_fig2()))

    section("Figure 3 — measured distributions and Zipf-Mandelbrot fits")
    print(format_table(run_fig3(limit=fig3_limit)))

    section("Figure 4 — PALU curve families converging to Zipf-Mandelbrot")
    print(format_table(run_fig4()))

    section("Section IV — observed-network expectations vs simulation")
    print(format_table(run_palu_expectations()))

    section("Section IV-B — reduced-parameter recovery")
    print(format_table(run_palu_recovery(n_samples=n_samples)))

    section("Ablation — window-size invariance of the underlying parameters")
    print(format_table(run_window_invariance_ablation(n_samples=n_samples)))

    section("Ablation — Λ estimator variance (moment-ratio vs point-wise)")
    print(format_table([run_lambda_estimator_ablation()]))

    section("Ablation — webcrawl vs trunk-line observation")
    print(format_table(run_webcrawl_ablation()))


if __name__ == "__main__":
    main()
