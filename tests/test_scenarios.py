"""Tests of the scenario subsystem: registry, source, run path, drift.

The property-based harness lives in ``test_scenarios_properties.py`` and the
golden-file backend-equivalence harness in ``test_scenarios_golden.py``;
this module covers the declarative API, registration-time validation, the
bounded-buffering acceptance criterion, and phase attribution.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.phases import PhaseSegmentedAnalyzer, drift_between
from repro.analysis.pooling import PooledDistribution
from repro.scenarios import (
    BUILTIN_SCENARIO_NAMES,
    GRAPH_FAMILY_NAMES,
    Phase,
    Scenario,
    ScenarioTraceSource,
    analyze_scenario,
    build_family_edges,
    family_defaults,
    get_scenario,
    iter_scenarios,
    register_scenario,
    scenario_names,
)
from repro.streaming.aggregates import QUANTITY_NAMES

TINY = Phase("erdos-renyi", 5_000, {"n_nodes": 400, "p": 0.02})


def tiny_scenario(name="tiny", phases=(TINY, TINY), **kwargs) -> Scenario:
    return Scenario(name=name, phases=tuple(phases), **kwargs)


class TestFamilies:
    @pytest.mark.parametrize("family", GRAPH_FAMILY_NAMES)
    def test_every_family_builds_edges(self, family):
        edges = build_family_edges(family, {}, np.random.default_rng(0))
        assert edges.ndim == 2 and edges.shape[1] == 2
        assert edges.shape[0] > 0

    def test_family_determinism(self):
        a = build_family_edges("palu", {"n_nodes": 800}, np.random.default_rng(5))
        b = build_family_edges("palu", {"n_nodes": 800}, np.random.default_rng(5))
        assert np.array_equal(a, b)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown graph family"):
            build_family_edges("smallworld", {}, np.random.default_rng(0))

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="unknown parameter"):
            build_family_edges("erdos-renyi", {"n": 100}, np.random.default_rng(0))

    def test_defaults_are_copies(self):
        defaults = family_defaults("erdos-renyi")
        defaults["p"] = 0.5
        assert family_defaults("erdos-renyi")["p"] != 0.5

    def test_families_never_build_a_networkx_graph(self, monkeypatch):
        import networkx as nx

        def refuse(*args, **kwargs):
            raise AssertionError("scenario graph synthesis built a networkx graph")

        monkeypatch.setattr(nx, "Graph", refuse)
        for family in GRAPH_FAMILY_NAMES:
            assert build_family_edges(family, {}, np.random.default_rng(0)).shape[0] > 0


class TestScenarioValidation:
    def test_phase_budget_accounting(self):
        scenario = tiny_scenario()
        assert scenario.n_packets == 10_000
        assert scenario.n_phases == 2
        np.testing.assert_array_equal(scenario.phase_packet_boundaries(), [0, 5_000, 10_000])

    def test_empty_phases_rejected(self):
        with pytest.raises(ValueError, match="at least one phase"):
            Scenario(name="empty", phases=())

    def test_non_phase_rejected(self):
        with pytest.raises(TypeError, match="phase 1"):
            Scenario(name="bad", phases=(TINY, "not a phase"))

    def test_malformed_phase_config_fails_at_registration_with_index(self):
        """The validation-hoist fix: a bad TraceConfig fails when the scenario
        is *declared*, and the error names the offending phase."""
        bad = Phase("erdos-renyi", 1_000, rate_model="pareto")
        with pytest.raises(ValueError, match=r"scenario 'broken' phase 1: .*rate_model"):
            Scenario(name="broken", phases=(TINY, bad))

    def test_bad_budget_fails_at_registration_with_index(self):
        with pytest.raises(ValueError, match=r"scenario 'broken' phase 0: .*n_packets"):
            Scenario(name="broken", phases=(Phase("erdos-renyi", -5),))

    def test_bad_family_fails_at_registration_with_index(self):
        with pytest.raises(ValueError, match=r"scenario 'broken' phase 1: unknown graph family"):
            Scenario(name="broken", phases=(TINY, Phase("hypercube", 1_000)))

    def test_configs_hoisted_once(self):
        scenario = tiny_scenario()
        assert len(scenario.phase_configs) == 2
        assert scenario.phase_configs[0].n_packets == 5_000
        # the source reuses the validated configs rather than rebuilding them
        source = ScenarioTraceSource(scenario, seed=0)
        next(iter(source))
        assert scenario.phase_configs[0] is source.scenario.phase_configs[0]

    def test_crossfade_must_fit_inside_a_phase(self):
        with pytest.raises(ValueError, match="crossfade_packets=6000 exceeds"):
            tiny_scenario(crossfade_packets=6_000)
        with pytest.raises(ValueError, match="must be >= 0"):
            tiny_scenario(crossfade_packets=-1)


class TestRegistry:
    def test_builtins_registered(self):
        assert set(BUILTIN_SCENARIO_NAMES) <= set(scenario_names())
        for scenario in iter_scenarios():
            assert isinstance(scenario, Scenario)

    def test_get_by_name_and_passthrough(self):
        scenario = get_scenario("alpha-drift")
        assert scenario.name == "alpha-drift"
        assert get_scenario(scenario) is scenario

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown scenario 'nope'"):
            get_scenario("nope")

    def test_duplicate_registration_rejected_unless_replace(self):
        scenario = tiny_scenario(name="dup-test")
        try:
            register_scenario(scenario)
            with pytest.raises(ValueError, match="already registered"):
                register_scenario(tiny_scenario(name="dup-test"))
            replacement = tiny_scenario(name="dup-test", phases=(TINY,))
            assert register_scenario(replacement, replace=True) is replacement
            assert get_scenario("dup-test").n_phases == 1
        finally:
            from repro.scenarios.scenario import _REGISTRY

            _REGISTRY.pop("dup-test", None)

    def test_decorator_form_registers_and_returns_scenario(self):
        try:
            @register_scenario
            def decorated() -> Scenario:
                return tiny_scenario(name="decorated-test")

            assert isinstance(decorated, Scenario)
            assert get_scenario("decorated-test") is decorated
        finally:
            from repro.scenarios.scenario import _REGISTRY

            _REGISTRY.pop("decorated-test", None)

    def test_non_scenario_rejected(self):
        with pytest.raises(TypeError, match="expected a Scenario"):
            register_scenario(42)


class TestScenarioTraceSource:
    def test_single_use(self):
        source = ScenarioTraceSource(tiny_scenario(), seed=0)
        list(source)
        with pytest.raises(RuntimeError, match="single-use"):
            iter(source)

    def test_requires_scenario(self):
        with pytest.raises(TypeError, match="must be a Scenario"):
            ScenarioTraceSource("alpha-drift", seed=0)

    def test_timestamps_monotone_across_phases_and_chunks(self):
        trace = get_scenario("generator-mix").generate(seed=1)
        assert np.all(np.diff(trace.packets["time"]) >= 0)

    def test_invalid_fraction_realised_per_phase(self):
        scenario = get_scenario("invalid-storm")
        source = ScenarioTraceSource(scenario, seed=2)
        list(source)
        valid = source.valid_emitted_per_phase
        budgets = np.array([p.n_packets for p in scenario.phases])
        fractions = 1.0 - valid / budgets
        assert fractions[0] == 0.0
        assert fractions[1] == pytest.approx(0.30, abs=0.02)
        assert fractions[2] == pytest.approx(0.05, abs=0.02)

    def test_phase_of_valid_index(self):
        source = ScenarioTraceSource(tiny_scenario(), seed=0)
        list(source)
        assert source.phase_of_valid_index(0) == 0
        assert source.phase_of_valid_index(4_999) == 0
        assert source.phase_of_valid_index(5_000) == 1
        assert source.phase_of_valid_index(9_999) == 1
        with pytest.raises(ValueError, match="not yet emitted"):
            source.phase_of_valid_index(10_000)
        with pytest.raises(ValueError, match=">= 0"):
            source.phase_of_valid_index(-1)

    def test_crossfade_mixes_substrates_at_boundary(self):
        """With a fade, early packets of phase 1 still hit phase-0-only nodes."""
        lo = Phase("erdos-renyi", 8_000, {"n_nodes": 200, "p": 0.05})
        # disjoint node range is impossible (both families label from 0), so use
        # edge *density*: phase 1's graph has far more nodes, and faded packets
        # keep landing on phase 0's tiny node range at the start of phase 1
        hi = Phase("erdos-renyi", 8_000, {"n_nodes": 4_000, "p": 0.01})
        faded = Scenario(name="fade-probe", phases=(lo, hi), crossfade_packets=4_000)
        sharp = Scenario(name="sharp-probe", phases=(lo, hi))

        def head_small_node_share(scenario):
            trace = scenario.generate(seed=9)
            head = trace.packets[8_000:9_000]  # first packets of phase 1
            return np.mean((head["src"] < 200) & (head["dst"] < 200))

        assert head_small_node_share(faded) > 0.5  # mostly old substrate early in the fade
        assert head_small_node_share(sharp) < 0.2  # sharp switch: big graph immediately


class TestAnalyzeScenario:
    def test_buffering_bounded_by_chunk(self):
        """Acceptance criterion: `scenarios run alpha-drift --chunk-packets N`
        keeps peak buffering bounded by chunk_packets (plus one window span)."""
        chunk_packets, n_valid = 6_000, 3_000
        run = analyze_scenario(
            "alpha-drift", n_valid, seed=0, backend="serial", chunk_packets=chunk_packets,
            keep_windows=False,
        )
        stats = run.engine_stats
        assert stats["backend"] == "serial"
        assert stats["scenario"] == "alpha-drift"
        # invalid-free scenario: a window spans ~n_valid packets; the buffer
        # holds at most one chunk plus the leftover of an incomplete window
        assert stats["max_buffered_packets"] <= chunk_packets + 2 * n_valid
        assert stats["max_buffered_packets"] < run.scenario.n_packets / 4
        # bounded-memory runs drop per-window results but keep everything else
        assert run.analysis.windows == ()
        assert run.analysis.n_windows == run.phases.n_windows

    def test_unchunked_buffering_bounded_by_block(self):
        """Without chunk_packets the source yields one chunk per generation
        block, so buffering is bounded by the block size on every backend."""
        run = analyze_scenario("stationary", 5_000, seed=0, block_packets=7_000)
        assert run.engine_stats["max_buffered_packets"] <= 7_000 + 2 * 5_000

    @pytest.mark.parametrize("name", BUILTIN_SCENARIO_NAMES)
    def test_all_builtins_backend_identical(self, name):
        """Acceptance criterion: every built-in scenario produces
        chunking-identical pooled output (serial vs chunked serial; the golden
        harness additionally covers the process backend)."""
        serial = analyze_scenario(name, 5_000, seed=11, backend="serial")
        chunked = analyze_scenario(name, 5_000, seed=11, backend="serial",
                                   chunk_packets=9_000, keep_windows=False)
        assert serial.analysis.n_windows == chunked.analysis.n_windows
        for quantity in QUANTITY_NAMES:
            a, b = serial.analysis.pooled(quantity), chunked.analysis.pooled(quantity)
            assert np.array_equal(a.values, b.values)
            assert np.array_equal(a.sigma, b.sigma)
            assert a.total == b.total
        np.testing.assert_array_equal(
            serial.phases.window_phase, chunked.phases.window_phase
        )
        for phase in serial.phases.occupied_phases():
            for quantity in QUANTITY_NAMES:
                assert np.array_equal(
                    serial.phases.pooled(phase, quantity).values,
                    chunked.phases.pooled(phase, quantity).values,
                )

    def test_stationary_control_has_zero_drift(self):
        run = analyze_scenario("stationary", 5_000, seed=1)
        assert run.phases.max_drift("source_fanout") == 0.0
        assert run.phases.drift("source_fanout") == ()

    def test_flash_crowd_drift_exceeds_stationary_spread(self):
        """The drift statistic separates a regime change from noise: the
        flash-crowd transition scores far above intra-phase variation."""
        run = analyze_scenario("flash-crowd", 5_000, seed=1)
        drifts = run.phases.drift("source_fanout")
        assert len(drifts) == 2
        assert max(d.score for d in drifts) > 1.0

    def test_window_phase_is_monotone_partition(self):
        run = analyze_scenario("generator-mix", 5_000, seed=3)
        phases = run.phases.window_phase
        assert phases.size == run.analysis.n_windows
        assert np.all(np.diff(phases) >= 0)  # stream order ⇒ phases non-decreasing
        assert np.all((phases >= 0) & (phases < run.scenario.n_phases))

    def test_name_or_instance_accepted(self):
        scenario = tiny_scenario(name="inline")
        run = analyze_scenario(scenario, 2_000, seed=0)
        assert run.scenario is scenario
        assert run.analysis.n_windows == 5


class TestPhaseSegmentedAnalysis:
    @pytest.fixture(scope="class")
    def seg(self):
        return analyze_scenario("alpha-drift", 5_000, seed=7).phases

    def test_windows_in_phase_sums_to_total(self, seg):
        assert sum(seg.windows_in_phase(p) for p in range(seg.n_phases)) == seg.n_windows

    def test_pooled_unknown_quantity(self, seg):
        with pytest.raises(KeyError, match="not analysed"):
            seg.pooled(0, "bogus")

    def test_empty_phase_rejected(self):
        analyzer = PhaseSegmentedAnalyzer(1_000, 3, lambda v: 0, ("source_fanout",))
        from repro.streaming.pipeline import analyze_window
        from repro.streaming.packet import PacketTrace

        trace = PacketTrace.from_arrays(np.arange(1_000) % 7, np.arange(1_000) % 11 + 50)
        analyzer.update(analyze_window(trace))
        result = analyzer.result()
        assert result.occupied_phases() == (0,)
        with pytest.raises(ValueError, match="no complete windows"):
            result.pooled(1, "source_fanout")

    def test_attribution_out_of_range_rejected(self):
        analyzer = PhaseSegmentedAnalyzer(1_000, 2, lambda v: 5, ("source_fanout",))
        from repro.streaming.pipeline import analyze_window
        from repro.streaming.packet import PacketTrace

        trace = PacketTrace.from_arrays(np.arange(1_000), np.arange(1_000) + 1)
        with pytest.raises(ValueError, match="outside 0..1"):
            analyzer.update(analyze_window(trace))

    def test_as_rows_shape(self, seg):
        rows = seg.as_rows("source_fanout")
        assert len(rows) == seg.n_phases
        assert all({"phase", "windows", "D(d=1)", "drift_vs_prev"} <= set(row) for row in rows)

    def test_drift_between_identical_is_zero(self):
        pooled = PooledDistribution(
            bin_edges=np.array([1, 2, 4]), values=np.array([0.5, 0.3, 0.2]),
            sigma=np.array([0.1, 0.1, 0.1]), total=100,
        )
        per_bin, score = drift_between(pooled, pooled)
        assert np.all(per_bin == 0.0) and score == 0.0

    def test_drift_between_handles_zero_sigma_and_length_mismatch(self):
        a = PooledDistribution(bin_edges=np.array([1, 2]), values=np.array([0.6, 0.4]),
                               sigma=np.array([0.0, 0.2]), total=10)
        b = PooledDistribution(bin_edges=np.array([1, 2, 4]), values=np.array([0.5, 0.4, 0.1]),
                               sigma=np.array([0.0, 0.2, 0.0]), total=10)
        per_bin, score = drift_between(a, b)
        assert per_bin.size == 3
        assert np.isinf(per_bin[0])  # zero σ, different means → infinite drift
        assert per_bin[1] == pytest.approx(0.0)
        assert np.isinf(per_bin[2])  # bin exists only on one side, σ=0 there
        assert np.isinf(score)  # zero-variance shifts dominate, never vanish

    def test_single_window_phases_report_extreme_drift_not_zero(self):
        """Regression: with one window per phase every pooled σ is 0, so all
        drifting bins are inf — the score must read inf, not silently 0."""
        from repro.scenarios import analyze_scenario

        run = analyze_scenario("alpha-drift", 25_000, seed=0)
        assert np.all(np.bincount(run.phases.window_phase,
                                  minlength=run.phases.n_phases) == 1)
        assert np.isinf(run.phases.max_drift("source_fanout"))
