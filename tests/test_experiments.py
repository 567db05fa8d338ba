"""Integration tests for the experiment drivers (table/figure reproductions).

These are scaled-down versions of the benchmark harness runs: each driver is
executed on a small workload and the structural claims of the corresponding
table or figure are asserted (who wins, what is conserved, which effects have
the right sign) rather than absolute numbers.
"""

from __future__ import annotations

import pytest

from repro.experiments import (
    FIG3_SCENARIOS,
    default_palu_parameters,
    run_fig1,
    run_fig2,
    run_fig3_scenario,
    run_fig4,
    run_lambda_estimator_ablation,
    run_palu_expectations,
    run_palu_recovery,
    run_table1,
    run_webcrawl_ablation,
    run_window_invariance_ablation,
)
from repro.experiments.config import Scenario


class TestTable1:
    def test_rows_and_consistency(self):
        rows = run_table1(window_sizes=(5_000, 20_000), n_nodes=8_000, rng=0)
        assert len(rows) == 2
        for row in rows:
            assert row["valid_packets"] == row["NV"]
            assert row["notations_agree"] is True
            assert row["unique_sources"] <= 2 * row["unique_links"]
            assert row["unique_destinations"] <= 2 * row["unique_links"]
            assert row["unique_links"] <= row["valid_packets"]


class TestFig1:
    def test_quantity_breakdown(self):
        rows = run_fig1(n_valid=20_000, n_nodes=6_000, rng=0)
        by_name = {r["quantity"]: r for r in rows}
        assert set(by_name) == {
            "source_packets",
            "source_fanout",
            "link_packets",
            "destination_fanin",
            "destination_packets",
        }
        # packet-count quantities total exactly N_V
        assert by_name["source_packets"]["total"] == 20_000
        assert by_name["destination_packets"]["total"] == 20_000
        assert by_name["link_packets"]["total"] == 20_000
        # fan-out totals the number of unique links, which is below N_V
        assert by_name["source_fanout"]["total"] < 20_000
        # every quantity shows a significant mass at value 1 (leaves/unattached)
        assert all(r["frac_at_1"] > 0.05 for r in rows)


class TestFig2:
    def test_topology_classes_respond_to_mix(self):
        rows = run_fig2(n_nodes=8_000, p=0.6, rng=0)
        by_mix = {r["mix"]: r for r in rows}
        assert set(by_mix) == {"core-heavy", "balanced", "bot-heavy"}
        # a bot-heavy mix shows more unattached debris than a core-heavy mix
        assert by_mix["bot-heavy"]["n_unattached_nodes"] > by_mix["core-heavy"]["n_unattached_nodes"]
        assert by_mix["bot-heavy"]["n_unattached_links"] > 0
        # every Figure-2 class is populated in the balanced mix
        balanced = by_mix["balanced"]
        for key in ("n_supernodes", "n_supernode_leaves", "n_core", "n_core_leaves", "n_unattached_nodes"):
            assert balanced[key] > 0


class TestFig3:
    @pytest.fixture(scope="class")
    def small_scenario(self) -> Scenario:
        base = FIG3_SCENARIOS[0]
        return Scenario(
            name=base.name,
            quantity=base.quantity,
            paper_nv=base.paper_nv,
            paper_alpha=base.paper_alpha,
            paper_delta=base.paper_delta,
            parameters=base.parameters,
            n_nodes=8_000,
            n_packets=120_000,
            n_valid=40_000,
            rate_exponent=base.rate_exponent,
            seed=base.seed,
        )

    def test_scenario_row_structure(self, small_scenario):
        row = run_fig3_scenario(small_scenario)
        assert row["n_windows"] >= 2
        assert 1.0 < row["alpha_fit"] < 4.0
        assert row["delta_fit"] > -1.0
        assert 0.0 < row["D(d=1)"] <= 1.0

    def test_zm_beats_pure_power_law(self, small_scenario):
        """The central Figure-3 claim: the two-parameter ZM fit outperforms the baseline."""
        row = run_fig3_scenario(small_scenario)
        assert row["zm_log_mse"] < row["powerlaw_log_mse"]

    def test_scenario_catalogue_is_complete(self):
        assert len(FIG3_SCENARIOS) == 11
        names = {s.name for s in FIG3_SCENARIOS}
        assert len(names) == 11
        quantities = {s.quantity for s in FIG3_SCENARIOS}
        assert quantities == {
            "source_packets",
            "source_fanout",
            "link_packets",
            "destination_fanin",
            "destination_packets",
        }
        for s in FIG3_SCENARIOS:
            assert 1.4 < s.paper_alpha < 2.4
            assert -1.0 < s.paper_delta < 1.0


class TestFig4:
    def test_rows_cover_all_panels(self):
        rows = run_fig4(dmax=5_000)
        panels = {(r["panel_alpha"], r["panel_delta"]) for r in rows}
        assert len(panels) == 5

    def test_convergence_within_each_panel(self):
        rows = run_fig4(dmax=5_000)
        for alpha, delta in {(r["panel_alpha"], r["panel_delta"]) for r in rows}:
            errors = [r["log_mse_vs_ZM"] for r in rows if r["panel_alpha"] == alpha and r["panel_delta"] == delta]
            assert errors[-1] < errors[0]


class TestPALUExpectations:
    def test_predictions_track_simulation(self):
        rows = run_palu_expectations(n_nodes=30_000, p_values=(0.4, 0.8), rng=1)
        assert len(rows) == 2
        for row in rows:
            assert row["V_pred"] == pytest.approx(row["V_sim"], rel=0.1)
            assert row["leaves_pred"] == pytest.approx(row["leaves_sim"], abs=0.05)
            assert row["unattached_pred"] == pytest.approx(row["unattached_sim"], abs=0.05)
            assert row["deg1_pred"] == pytest.approx(row["deg1_sim"], abs=0.08)

    def test_visible_fraction_grows_with_p(self):
        rows = run_palu_expectations(n_nodes=20_000, p_values=(0.3, 0.9), rng=2)
        assert rows[1]["V_sim"] > rows[0]["V_sim"]


class TestPALURecovery:
    def test_reduced_parameters_recovered(self):
        rows = run_palu_recovery(p_values=(0.5,), n_samples=400_000, dmax=20_000, rng=3)
        row = rows[0]
        assert row["alpha_fit"] == pytest.approx(row["alpha_true"], abs=0.15)
        assert row["c_fit"] == pytest.approx(row["c_true"], rel=0.2)
        assert row["l_fit"] == pytest.approx(row["l_true"], rel=0.2)


class TestAblations:
    def test_window_invariance(self):
        rows = run_window_invariance_ablation(
            p_values=(0.4, 0.8), n_samples=400_000, dmax=10_000, rng=4
        )
        alphas = [r["alpha_hat"] for r in rows]
        # alpha must not drift with the window parameter
        assert max(alphas) - min(alphas) < 0.2

    def test_lambda_estimator_moment_not_worse_than_pointwise(self):
        summary = run_lambda_estimator_ablation(
            p=0.5, n_samples=100_000, n_repeats=6, dmax=10_000, rng=5
        )
        assert summary["moment_std"] <= summary["pointwise_std"] * 1.5
        assert summary["moment_mean"] > 0

    def test_webcrawl_vs_trunk(self):
        rows = run_webcrawl_ablation(n_nodes=15_000, p=0.6, rng=6)
        by_obs = {r["observation"]: r for r in rows}
        crawl, trunk = by_obs["webcrawl"], by_obs["trunk_edge_sample"]
        # the crawl sees no unattached debris; trunk observation sees plenty
        assert trunk["n_small_components"] > crawl["n_small_components"]
        # trunk observation has a larger degree-1 excess
        assert trunk["frac_degree_1"] > crawl["frac_degree_1"] - 0.05
        # the ZM model helps more (relative to a pure power law) on trunk data
        trunk_gain = trunk["powerlaw_log_mse"] - trunk["zm_log_mse"]
        crawl_gain = crawl["powerlaw_log_mse"] - crawl["zm_log_mse"]
        assert trunk_gain >= crawl_gain - 0.01


class TestDefaultParameters:
    def test_default_parameters_valid(self):
        params = default_palu_parameters()
        assert params.constraint_value() == pytest.approx(1.0)
        assert 1.5 <= params.alpha <= 3.0
