#!/usr/bin/env python
"""Online drift detection: flagging regime changes as the stream flows.

PR 2's scenarios score drift *offline* — the per-phase ``|Δmean|/σ``
statistic needs the whole run and the ground-truth phase layout in hand.
This example shows the *online* counterpart (``repro.detect``): streaming
change-point detectors that watch the per-window pooled vectors as the
single-pass engine folds them, in O(bins) memory, without being told where
(or whether) the phases change:

1. run the ``stationary`` control with all three detectors — EWMA, CUSUM,
   Page–Hinkley — and confirm none of them alarm,
2. run ``alpha-drift`` and ``flash-crowd`` and watch the alarms land within
   a few windows of the true phase boundaries the detectors never saw,
3. score each detector against the scenario's ground truth — detection
   latency, precision/recall, false-alarm rate — with ``evaluate_run``,
4. run the same detection again in bounded memory — chunked reads, no
   per-window results kept — and confirm the alarm sequence is
   bit-identical (detection inherits the engine's chunking invariance).

Run with ``python examples/online_drift_detection.py``.
"""

from __future__ import annotations

import repro
from repro._util.examples import example_scale
from repro.analysis.summary import format_table
from repro.detect import DETECTOR_NAMES, evaluate_run
from repro.detect.evaluate import true_change_windows

#: The window size the detector defaults are tuned at — fixed, not scaled:
#: thresholds are validated at this N_V, so ``REPRO_EXAMPLE_SCALE`` shrinks
#: the number of scenario runs instead of the per-run workload.
N_VALID = 2_000
DRIFT_SCENARIOS = (
    ("alpha-drift", "flash-crowd") if example_scale() >= 1.0 else ("flash-crowd",)
)


def report(title: str, run) -> None:
    print(f"\n=== {title} ===")
    stats = run.engine_stats
    boundaries = true_change_windows(run.phases.window_phase)
    print(f"backend={stats['backend']}  windows={run.detection.n_windows}  "
          f"true boundaries: {' '.join(map(str, boundaries)) or 'none'}")
    print(format_table(run.detection.as_rows()))
    print(format_table([ev.as_row() for ev in evaluate_run(run)]))


def main() -> None:
    print("detectors:", ", ".join(DETECTOR_NAMES))

    # 1. the stationary control: every detector must stay silent
    control = repro.analyze_scenario(
        "stationary", N_VALID, seed=7, detectors=DETECTOR_NAMES
    )
    report("stationary (control)", control)
    assert all(not control.detection.alarms[name] for name in DETECTOR_NAMES)

    # 2–3. regime changes: alarms land near boundaries the detectors never saw
    for scenario in DRIFT_SCENARIOS:
        run = repro.analyze_scenario(scenario, N_VALID, seed=7, detectors=DETECTOR_NAMES)
        report(scenario, run)

    # 4. a bounded-memory run produces the identical alarm sequence
    serial = repro.analyze_scenario("flash-crowd", N_VALID, seed=7, detectors=DETECTOR_NAMES)
    bounded = repro.analyze_scenario(
        "flash-crowd", N_VALID, seed=7, detectors=DETECTOR_NAMES,
        chunk_packets=10_000, keep_windows=False,
    )
    assert serial.detection.alarms == bounded.detection.alarms
    print(f"\nbounded-memory run (peak buffering "
          f"{bounded.engine_stats['max_buffered_packets']} packets) reproduced the "
          f"serial alarm sequence bit-identically: {dict(bounded.detection.alarms)}")


if __name__ == "__main__":
    main()
