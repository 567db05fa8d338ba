"""Unit tests for the online drift-detection subsystem (repro.detect)."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.detect import (
    DETECTOR_NAMES,
    DetectingAnalyzer,
    DriftDetector,
    EWMADetector,
    evaluate_run,
    get_detector,
    make_detectors,
    match_alarms,
    true_change_windows,
)
from repro.detect.detectors import _EWMABaseline
from repro.streaming.pipeline import StreamAnalyzer, analyze_window
from repro.streaming.window import iter_windows


class TestRegistry:
    def test_catalogue_names(self):
        assert DETECTOR_NAMES == ("ewma", "cusum", "page-hinkley")

    @pytest.mark.parametrize("name", DETECTOR_NAMES)
    def test_get_by_name_fresh_instance(self, name):
        a, b = get_detector(name), get_detector(name)
        assert a is not b
        assert a.name == name
        assert isinstance(a, DriftDetector)

    def test_get_unknown_name(self):
        with pytest.raises(KeyError, match="unknown detector"):
            get_detector("kalman")

    def test_params_override(self):
        detector = get_detector("ewma", threshold=0.5)
        assert detector.params()["threshold"] == 0.5

    def test_instance_passthrough_rejects_params(self):
        instance = EWMADetector()
        assert get_detector(instance) is instance
        with pytest.raises(ValueError, match="name"):
            get_detector(instance, threshold=1.0)

    def test_non_detector_rejected(self):
        with pytest.raises(TypeError, match="DriftDetector"):
            get_detector(object())  # type: ignore[arg-type]

    def test_make_detectors_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            make_detectors(("ewma", EWMADetector()))

    @pytest.mark.parametrize("name", DETECTOR_NAMES)
    def test_invalid_parameters_rejected(self, name):
        with pytest.raises(ValueError):
            get_detector(name, threshold=-1.0)
        with pytest.raises(ValueError):
            get_detector(name, warmup=1)
        with pytest.raises(ValueError):
            get_detector(name, decay=1.5)


class TestEWMABaseline:
    def test_first_update_seeds_mean(self):
        baseline = _EWMABaseline(0.2)
        baseline.update(np.array([1.0, 2.0]))
        assert baseline.count == 1
        np.testing.assert_array_equal(baseline._mean, [1.0, 2.0])

    def test_vectors_may_grow_and_shrink(self):
        baseline = _EWMABaseline(0.5)
        baseline.update(np.array([1.0]))
        baseline.update(np.array([1.0, 4.0]))   # grows: old samples were 0 there
        baseline.update(np.array([1.0]))        # shrinks: padded with 0
        assert baseline.n_bins == 2
        assert baseline._mean[0] == 1.0

    def test_distance_is_scale_free(self):
        baseline_small, baseline_big = _EWMABaseline(0.2), _EWMABaseline(0.2)
        x = np.array([1.0, 0.5, 0.25])
        baseline_small.update(x)
        baseline_big.update(1000.0 * x)
        assert baseline_small.distance(1.1 * x) == pytest.approx(
            baseline_big.distance(1100.0 * x)
        )

    def test_stationary_stream_has_small_distance(self):
        rng = np.random.default_rng(0)
        baseline = _EWMABaseline(0.1)
        base = np.array([8.0, 4.0, 2.0, 1.0])
        for _ in range(20):
            baseline.update(base + rng.normal(0, 0.01, size=4))
        assert baseline.distance(base) < 0.02
        assert baseline.distance(2 * base[::-1]) > 0.5

    def test_state_size_is_bin_count(self):
        baseline = _EWMABaseline(0.2)
        baseline.update(np.zeros(7))
        assert baseline.state_size() == 7


def _feed(detector, vectors):
    """Feed vectors in order; return the indices that alarmed."""
    return [i for i, v in enumerate(vectors) if detector.observe(np.asarray(v, float))]


def _step_stream(n_before=20, n_after=12, scale=3.0, seed=0):
    """A noisy vector stream with an abrupt scale change (regime shift)."""
    rng = np.random.default_rng(seed)
    base = np.array([16.0, 8.0, 4.0, 2.0, 1.0])
    before = [base * (1 + rng.normal(0, 0.02, size=5)) for _ in range(n_before)]
    shifted = base.copy()
    shifted[0] /= scale
    shifted[2] *= scale
    after = [shifted * (1 + rng.normal(0, 0.02, size=5)) for _ in range(n_after)]
    return before + after, n_before


@pytest.mark.parametrize("name", DETECTOR_NAMES)
class TestDetectorMechanics:
    def test_no_alarms_during_warmup(self, name):
        detector = get_detector(name)
        vectors, _ = _step_stream()
        assert _feed(detector, vectors[: detector.warmup]) == []

    def test_constant_stream_never_alarms(self, name):
        detector = get_detector(name)
        vectors = [np.array([8.0, 4.0, 2.0])] * 40
        assert _feed(detector, vectors) == []

    def test_step_change_alarms_and_rebaselines(self, name):
        detector = get_detector(name)
        vectors, change = _step_stream()
        alarms = _feed(detector, vectors)
        assert alarms, "abrupt regime shift must alarm"
        assert change <= alarms[0] <= change + 6
        # one alarm only: the reset re-baselined onto the new regime, which
        # is then stationary, and the baseline restarted from the alarm
        assert len(alarms) == 1
        assert detector._baseline.count == len(vectors) - alarms[0] - 1

    def test_determinism(self, name):
        vectors, _ = _step_stream(seed=3)
        assert _feed(get_detector(name), vectors) == _feed(get_detector(name), vectors)

    def test_state_is_o_bins_not_o_windows(self, name):
        short, long = get_detector(name), get_detector(name)
        vectors = [np.array([8.0, 4.0, 2.0, 1.0])] * 10
        _feed(short, vectors)
        _feed(long, vectors * 30)   # 30× more windows, same bins
        assert long.state_size() == short.state_size()

    def test_reset_restores_initial_state(self, name):
        detector = get_detector(name)
        vectors, _ = _step_stream()
        _feed(detector, vectors)
        detector.reset()
        fresh = get_detector(name)
        assert detector.state_size() == fresh.state_size()
        assert detector._baseline.count == 0


class TestDetectingAnalyzer:
    @pytest.fixture(scope="class")
    def window_results(self, small_trace):
        return [analyze_window(w) for w in iter_windows(small_trace, 20_000)]

    def test_requires_detectors(self):
        with pytest.raises(ValueError, match="at least one detector"):
            DetectingAnalyzer(StreamAnalyzer(1_000), ())

    def test_monitored_quantity_defaults_to_source_fanout(self):
        analyzer = DetectingAnalyzer(StreamAnalyzer(1_000), ("ewma",))
        assert analyzer.quantity == "source_fanout"

    def test_monitored_quantity_falls_back_to_first(self):
        analyzer = DetectingAnalyzer(
            StreamAnalyzer(1_000, ("link_packets",)), ("ewma",)
        )
        assert analyzer.quantity == "link_packets"

    def test_unanalysed_quantity_rejected(self):
        with pytest.raises(ValueError, match="not analysed"):
            DetectingAnalyzer(
                StreamAnalyzer(1_000, ("link_packets",)), ("ewma",), quantity="source_fanout"
            )

    def test_wrapped_analysis_unchanged(self, window_results):
        plain = StreamAnalyzer(20_000, keep_windows=False)
        for result in window_results:
            plain.update(result)
        wrapped_inner = StreamAnalyzer(20_000, keep_windows=False)
        wrapped = DetectingAnalyzer(wrapped_inner, DETECTOR_NAMES)
        for result in window_results:
            wrapped.update(result)
        assert wrapped.n_windows == plain.n_windows
        assert wrapped.result() == plain.result()

    def test_detection_result_shape(self, window_results):
        analyzer = DetectingAnalyzer(StreamAnalyzer(20_000), DETECTOR_NAMES)
        for result in window_results:
            analyzer.update(result)
        detection = analyzer.detection()
        assert detection.detectors == DETECTOR_NAMES
        assert detection.n_windows == len(window_results)
        assert set(detection.alarms) == set(DETECTOR_NAMES)
        assert set(detection.params) == set(DETECTOR_NAMES)
        rows = detection.as_rows()
        assert [r["detector"] for r in rows] == list(DETECTOR_NAMES)

    def test_state_size_is_sum_of_detectors(self):
        analyzer = DetectingAnalyzer(StreamAnalyzer(1_000), ("ewma", "cusum"))
        assert analyzer.state_size() == sum(d.state_size() for d in analyzer.detectors)


class TestEvaluation:
    def test_true_change_windows(self):
        assert true_change_windows(np.array([0, 0, 0, 1, 1, 2])) == (3, 5)
        assert true_change_windows(np.array([0, 0, 0])) == ()
        assert true_change_windows(np.array([])) == ()

    def test_match_alarms_basic(self):
        matched, false_alarms = match_alarms([16, 40], [15, 30], max_latency=8)
        assert matched == {15: 16}
        assert false_alarms == (40,)

    def test_match_alarm_before_boundary_is_false(self):
        matched, false_alarms = match_alarms([10], [15], max_latency=8)
        assert matched == {}
        assert false_alarms == (10,)

    def test_match_one_alarm_per_boundary(self):
        matched, false_alarms = match_alarms([15, 16, 17], [15], max_latency=8)
        assert matched == {15: 15}
        assert false_alarms == (16, 17)

    def test_match_two_boundaries_one_window(self):
        # the second alarm lands in both boundaries' windows; it must credit
        # the not-yet-detected one rather than double-crediting the first
        matched, _ = match_alarms([15, 18], [15, 17], max_latency=8)
        assert matched == {15: 15, 17: 18}

    def test_match_rejects_negative_latency(self):
        with pytest.raises(ValueError, match="max_latency"):
            match_alarms([1], [1], max_latency=-1)

    def test_evaluation_metrics(self):
        run = repro.analyze_scenario(
            "alpha-drift", 2_000, seed=0, detectors=DETECTOR_NAMES
        )
        evaluations = evaluate_run(run, max_latency=8)
        assert [e.detector for e in evaluations] == list(DETECTOR_NAMES)
        for evaluation in evaluations:
            assert evaluation.boundaries == true_change_windows(run.phases.window_phase)
            assert 0.0 <= evaluation.precision <= 1.0
            assert 0.0 <= evaluation.recall <= 1.0
            assert evaluation.n_detected >= 1
            assert all(0 <= latency <= 8 for latency in evaluation.latencies)
            row = evaluation.as_row()
            assert row["detector"] == evaluation.detector
            assert row["boundaries"] == 2

    def test_evaluate_run_requires_detection(self):
        run = repro.analyze_scenario("stationary", 10_000, seed=0)
        with pytest.raises(ValueError, match="no detection"):
            evaluate_run(run)

    def test_evaluate_detectors_convenience(self):
        run, evaluations = repro.evaluate_detectors(
            "flash-crowd", 2_000, seed=1, detectors=("cusum",)
        )
        assert run.detection is not None
        assert len(evaluations) == 1
        assert evaluations[0].detector == "cusum"
        assert evaluations[0].recall > 0

    def test_metrics_without_alarms_or_boundaries(self):
        run = repro.analyze_scenario("stationary", 2_000, seed=0, detectors=("ewma",))
        evaluation = evaluate_run(run)[0]
        assert evaluation.boundaries == ()
        assert evaluation.alarms == ()
        assert evaluation.precision == 1.0 and evaluation.recall == 1.0
        assert evaluation.false_alarm_rate == 0.0
        assert np.isnan(evaluation.mean_latency)
        assert evaluation.as_row()["latency"] == "-"


class TestScenarioIntegration:
    def test_detection_off_by_default(self):
        run = repro.analyze_scenario("stationary", 10_000, seed=0)
        assert run.detection is None

    def test_empty_detectors_means_no_detection(self):
        run = repro.analyze_scenario("stationary", 10_000, seed=0, detectors=())
        assert run.detection is None

    def test_detect_quantity_without_detectors_rejected(self):
        with pytest.raises(ValueError, match="no detectors"):
            repro.analyze_scenario(
                "stationary", 10_000, seed=0, detect_quantity="link_packets"
            )

    def test_detection_attached_and_scored(self):
        run = repro.analyze_scenario(
            "flash-crowd", 2_000, seed=0, detectors=DETECTOR_NAMES
        )
        assert run.detection is not None
        assert run.detection.quantity == "source_fanout"
        assert run.detection.n_windows == run.analysis.n_windows
        assert any(run.detection.alarms[name] for name in DETECTOR_NAMES)

    def test_detect_quantity_respected(self):
        run = repro.analyze_scenario(
            "stationary", 5_000, seed=0, detectors=("ewma",), detect_quantity="link_packets"
        )
        assert run.detection.quantity == "link_packets"

    def test_streaming_backend_detector_state_stays_o_bins(self):
        """Memory-bound contract: a longer stream must not grow detector state
        (beyond bin growth), and engine buffering stays bounded by the chunk."""
        from repro.scenarios import Phase, Scenario

        def run_phases(n_packets):
            scenario = Scenario(
                "detect-mem-test",
                phases=(Phase("erdos-renyi", n_packets, {"n_nodes": 400, "p": 0.02}),),
            )
            analyzer = StreamAnalyzer(500, ("source_fanout",), keep_windows=False)
            detecting = DetectingAnalyzer(analyzer, DETECTOR_NAMES)
            from repro.scenarios.source import ScenarioTraceSource
            from repro.streaming.window import PushWindower

            source = ScenarioTraceSource(scenario, seed=0, chunk_packets=2_000)
            windower = PushWindower(500)
            for chunk in source:
                for window in windower.push(chunk):
                    detecting.update(analyze_window(window))
            return detecting, windower

        short, _ = run_phases(10_000)
        long, windower = run_phases(80_000)   # 8× the windows
        assert long.n_windows >= 8 * short.n_windows
        n_bins_short = short.analyzer.pooled("source_fanout").n_bins
        n_bins_long = long.analyzer.pooled("source_fanout").n_bins
        # identical per-bin footprint ⇒ state differs only through bin count
        assert long.state_size() <= short.state_size() + 6 * (n_bins_long - n_bins_short)
        assert windower.max_buffered_packets <= 2_000 + 500 * 4

    def test_backend_equivalence_of_alarms(self):
        kwargs = dict(detectors=DETECTOR_NAMES, seed=5)
        serial = repro.analyze_scenario("flash-crowd", 2_000, **kwargs)
        process = repro.analyze_scenario(
            "flash-crowd", 2_000, backend="process", n_workers=2, **kwargs
        )
        chunked = repro.analyze_scenario(
            "flash-crowd", 2_000, backend="serial", chunk_packets=7_000, keep_windows=False,
            **kwargs,
        )
        assert serial.detection.alarms == process.detection.alarms
        assert serial.detection.alarms == chunked.detection.alarms


class TestCampaignIntegration:
    def test_detectors_change_the_content_key(self):
        spec_plain = repro.RunSpec("stationary", seed=0, n_valid=2_000)
        spec_detect = repro.RunSpec(
            "stationary", seed=0, n_valid=2_000, detectors=("cusum",)
        )
        assert spec_plain.key != spec_detect.key
        assert spec_detect.as_manifest()["detectors"] == ["cusum"]

    def test_unknown_detector_rejected_at_spec_construction(self):
        with pytest.raises(ValueError, match="unknown detectors"):
            repro.RunSpec("stationary", seed=0, n_valid=2_000, detectors=("bogus",))

    def test_detector_parameter_retune_changes_the_key(self, monkeypatch):
        """Alarms are a function of the tuned parameters, so a default
        retune must retire cached cells mechanically."""
        import functools

        from repro.detect import EWMADetector
        from repro.detect import detectors as detectors_module

        before = repro.RunSpec("stationary", seed=0, n_valid=2_000, detectors=("ewma",))
        monkeypatch.setitem(
            detectors_module._FACTORIES, "ewma",
            functools.partial(EWMADetector, threshold=0.42),
        )
        after = repro.RunSpec("stationary", seed=0, n_valid=2_000, detectors=("ewma",))
        assert before.key != after.key

    def test_duplicate_detectors_rejected_at_spec_construction(self):
        with pytest.raises(ValueError, match="duplicate detectors"):
            repro.RunSpec("stationary", seed=0, n_valid=2_000, detectors=("cusum", "cusum"))
        with pytest.raises(ValueError, match="duplicate detectors"):
            repro.Campaign("dup", scenarios=("stationary",), detectors=("ewma", "ewma"))

    def test_campaign_cells_carry_detectors(self, tmp_path):
        campaign = repro.Campaign(
            "detect-sweep",
            scenarios=("stationary",),
            seeds=(0,),
            n_valids=(2_000,),
            quantities=("source_fanout",),
            detectors=("ewma", "cusum"),
        )
        assert all(spec.detectors == ("ewma", "cusum") for spec in campaign.cells())
        run = repro.run_campaign(campaign, tmp_path / "store")
        assert run.n_computed == 1
        store = repro.ResultStore(tmp_path / "store")
        stored = store.get(campaign.cells()[0].key)
        assert stored.detection is not None
        assert stored.detection.detectors == ("ewma", "cusum")
