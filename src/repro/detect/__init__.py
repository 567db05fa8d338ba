"""Online drift detection inside the single-pass streaming engine.

PR 2's scenarios broke the paper's stationarity assumption and scored the
damage *offline* — per-phase ``|Δmean|/σ`` needs the whole run and the
ground-truth phase layout.  This subpackage detects regime changes
*online*: streaming change-point detectors watch the per-window pooled
vectors as the engine folds them, in bounded (O(bins)) memory, on every
execution backend, without knowing the phase layout.

* :mod:`repro.detect.detectors` — the :class:`DriftDetector` protocol and
  the built-in implementations: :class:`EWMADetector` (per-bin EWMA
  baseline deviation), :class:`CUSUMDetector`, and
  :class:`PageHinkleyDetector` (both over a per-window
  distance-to-running-baseline statistic),
* :mod:`repro.detect.analyzer` — :class:`DetectingAnalyzer`, the wrapper
  that folds detection into any :class:`~repro.streaming.pipeline.StreamAnalyzer`
  pass, and the frozen :class:`DetectionResult`,
* :mod:`repro.detect.evaluate` — alarm↔ground-truth matching: detection
  latency, precision/recall, and false-alarm rate per scenario.

Quickstart::

    import repro

    run = repro.analyze_scenario("alpha-drift", n_valid=2_000, seed=0,
                                 detectors=("ewma", "cusum", "page-hinkley"))
    run.detection.alarms["cusum"]               # alarm window indices
    for ev in repro.evaluate_run(run):          # score vs ground truth
        print(ev.as_row())

CLI: ``repro detect list`` and ``repro detect run <scenario>``.
"""

from repro._util.lazy import lazy_exports

__all__ = [
    "DEFAULT_MAX_LATENCY",
    "DETECTOR_NAMES",
    "CUSUMDetector",
    "DetectingAnalyzer",
    "DetectionResult",
    "DetectorEvaluation",
    "DriftDetector",
    "EWMADetector",
    "PageHinkleyDetector",
    "evaluate_detectors",
    "evaluate_run",
    "get_detector",
    "make_detectors",
    "match_alarms",
    "true_change_windows",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".analyzer": ("DetectingAnalyzer", "DetectionResult"),
        ".detectors": (
            "DETECTOR_NAMES", "CUSUMDetector", "DriftDetector", "EWMADetector",
            "PageHinkleyDetector", "get_detector", "make_detectors",
        ),
        ".evaluate": (
            "DEFAULT_MAX_LATENCY", "DetectorEvaluation", "evaluate_detectors", "evaluate_run",
            "match_alarms", "true_change_windows",
        ),
    },
)
