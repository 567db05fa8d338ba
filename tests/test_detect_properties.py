"""Property-based tests (hypothesis) of the online drift detectors.

The detector contract, pinned over drawn seeds / chunkings / backends:

1. **Specificity** — on the ``stationary`` scenario (the paper's regime)
   every built-in detector raises **zero** alarms, for any seed in the
   validated range.
2. **Sensitivity** — on the regime-changing ``alpha-drift`` and
   ``flash-crowd`` scenarios every detector raises at least one alarm
   within a bounded latency of a true phase boundary.
3. **Invariance** — the alarm sequence is a function of the trace alone:
   identical across the serial / process / streaming backends and invariant
   to ``chunk_packets`` (chunking re-cuts the stream, it must never change
   what the detectors see).

Seeds are drawn from ``0..31`` — the range the default thresholds were
validated against, exhaustively, when they were tuned (see
``repro/detect/detectors.py``).  The properties are *deterministic* per
draw: a failure here means the detectors or the generator changed, not
that a new seed got unlucky.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.detect import DETECTOR_NAMES, evaluate_run

pytestmark = pytest.mark.slow

#: Window size the thresholds were tuned at.
N_VALID = 2_000
#: Detection window (windows after a true boundary) the tuning guarantees.
MAX_LATENCY = 8

_seeds = st.integers(min_value=0, max_value=31)

# example counts and deadlines are governed by the dev/ci profiles registered
# in conftest.py — do NOT pin max_examples here (it would override the
# --hypothesis-profile=ci selection); each example is a full scenario run, so
# these are the suite's heaviest properties and carry the `slow` marker.


class TestSpecificity:
    @given(seed=_seeds)
    def test_stationary_raises_zero_alarms(self, seed):
        run = repro.analyze_scenario(
            "stationary", N_VALID, seed=seed, detectors=DETECTOR_NAMES
        )
        assert all(run.detection.alarms[name] == () for name in DETECTOR_NAMES), (
            f"false alarms on the stationary control: {dict(run.detection.alarms)}"
        )


class TestSensitivity:
    @given(seed=_seeds, scenario=st.sampled_from(["alpha-drift", "flash-crowd"]))
    def test_regime_changes_detected_within_latency(self, seed, scenario):
        run = repro.analyze_scenario(
            scenario, N_VALID, seed=seed, detectors=DETECTOR_NAMES
        )
        for evaluation in evaluate_run(run, max_latency=MAX_LATENCY):
            assert evaluation.n_detected >= 1, (
                f"{evaluation.detector} missed every boundary of {scenario} "
                f"(seed {seed}): alarms {evaluation.alarms}, "
                f"boundaries {evaluation.boundaries}"
            )
            assert all(lat <= MAX_LATENCY for lat in evaluation.latencies)


class TestInvariance:
    @given(
        seed=st.integers(min_value=0, max_value=7),
        chunk_packets=st.integers(min_value=1_000, max_value=30_000),
    )
    @settings(deadline=None)
    def test_alarms_invariant_to_chunking(self, seed, chunk_packets):
        reference = repro.analyze_scenario(
            "flash-crowd", N_VALID, seed=seed, detectors=DETECTOR_NAMES
        )
        chunked = repro.analyze_scenario(
            "flash-crowd", N_VALID, seed=seed, detectors=DETECTOR_NAMES,
            backend="serial", chunk_packets=chunk_packets, keep_windows=False,
        )
        assert chunked.detection.alarms == reference.detection.alarms

    @given(seed=st.integers(min_value=0, max_value=7))
    @settings(deadline=None)
    def test_alarms_identical_across_backends_and_chunking(self, seed):
        runs = {
            label: repro.analyze_scenario(
                "alpha-drift", N_VALID, seed=seed, detectors=DETECTOR_NAMES, **kwargs
            )
            for label, kwargs in {
                "serial": {"backend": "serial"},
                "process": {"backend": "process", "n_workers": 2},
                "serial-chunked": {
                    "backend": "serial", "chunk_packets": 9_000, "keep_windows": False,
                },
            }.items()
        }
        assert (
            runs["serial"].detection.alarms
            == runs["process"].detection.alarms
            == runs["serial-chunked"].detection.alarms
        )
