"""Run a scenario through the single-pass streaming engine.

:func:`analyze_scenario` is the scenario counterpart of
:func:`repro.streaming.pipeline.analyze_trace`: the scenario's chunk stream
(:class:`~repro.scenarios.source.ScenarioTraceSource`) is windowed by the
same :class:`~repro.streaming.window.PushWindower`, mapped through the
same pluggable :class:`~repro.streaming.parallel.ExecutionBackend`, and
folded by the same :class:`~repro.streaming.pipeline.StreamAnalyzer` — with
a :class:`~repro.analysis.phases.PhaseSegmentedAnalyzer` riding the same
in-order result stream to attribute windows to phases.  Because both folds
consume the identical ordered stream, scenario analyses keep the engine's
guarantee: every backend produces bit-identical pooled output, globally and
per phase, and peak buffering stays bounded by the chunk size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

from repro._util.logging import get_logger
from repro._util.validation import check_positive_int
from repro.analysis.phases import PhaseSegmentedAnalysis, PhaseSegmentedAnalyzer
from repro.detect.analyzer import DetectingAnalyzer, DetectionResult
from repro.scenarios.scenario import Scenario, get_scenario
from repro.scenarios.source import DEFAULT_BLOCK_PACKETS, ScenarioTraceSource, SeedLike
from repro.streaming.aggregates import QUANTITY_NAMES
from repro.streaming.parallel import ExecutionBackend, get_backend
from repro.streaming.pipeline import StreamAnalyzer, WindowedAnalysis, backend_stats, fold_windows
from repro.streaming.sketch import SketchConfig
from repro.streaming.trace_io import ANALYSIS_COLUMNS
from repro.streaming.window import PushWindower

__all__ = ["ScenarioRun", "analyze_scenario"]

_logger = get_logger("scenarios.run")


@dataclass(frozen=True)
class ScenarioRun:
    """Everything one scenario run produced.

    Attributes
    ----------
    scenario:
        The scenario that was run.
    analysis:
        The engine's :class:`WindowedAnalysis` over the whole stream
        (``engine_stats`` carries the buffering high-water mark).
    phases:
        The :class:`PhaseSegmentedAnalysis`: per-phase pooled distributions
        and the adjacent-phase drift statistic.
    detection:
        Online drift-detection alarms
        (:class:`~repro.detect.analyzer.DetectionResult`), present when the
        run was produced with ``detectors=``; ``None`` otherwise.
    """

    scenario: Scenario
    analysis: WindowedAnalysis
    phases: PhaseSegmentedAnalysis
    detection: DetectionResult | None = None

    @property
    def engine_stats(self):
        """Engine execution statistics of the underlying analysis."""
        return self.analysis.engine_stats


def analyze_scenario(
    scenario: Union[str, Scenario],
    n_valid: int,
    *,
    seed: SeedLike = 0,
    quantities: Sequence[str] = QUANTITY_NAMES,
    backend: Union[str, ExecutionBackend, None] = None,
    n_workers: int | None = None,
    chunk_packets: int | None = None,
    block_packets: int = DEFAULT_BLOCK_PACKETS,
    keep_windows: bool = True,
    detectors: Sequence[str] | None = None,
    detect_quantity: str | None = None,
    mode: str = "exact",
    sketch: SketchConfig | None = None,
    payload_transport: str | None = None,
) -> ScenarioRun:
    """Generate and analyse a scenario in one bounded-memory pass.

    Parameters
    ----------
    scenario:
        A registered scenario name or a :class:`Scenario` instance.
    n_valid:
        Window size ``N_V`` in valid packets.
    seed:
        Scenario seed; the same seed reproduces the identical trace (and
        therefore identical analysis) on every backend and chunking.
    quantities, backend, n_workers, chunk_packets, keep_windows:
        As in :func:`repro.streaming.pipeline.analyze_trace`.  Without
        ``chunk_packets`` the source yields one chunk per generation
        block, so buffering is bounded by the block size either way.
        The source emits :data:`~repro.streaming.trace_io.ANALYSIS_COLUMNS`
        only, so kept windows read ``time`` and ``size`` as zeros, like
        ``analyze_trace`` of a stored trace.
    block_packets:
        Internal generation block size (part of the trace's identity: the
        same scenario and seed with a different block size is a different —
        equally valid — trace realisation).
    detectors:
        Online drift detectors to ride the fold
        (:data:`repro.detect.DETECTOR_NAMES` names or
        :class:`~repro.detect.detectors.DriftDetector` instances).  The
        returned run then carries a ``detection`` result whose alarm
        sequences are bit-identical on every backend and invariant to
        chunking.  ``None`` or empty (the default) skips detection
        entirely.
    detect_quantity:
        Which pooled quantity the detectors monitor (default:
        ``"source_fanout"`` when analysed, else the first of *quantities*).
    mode, sketch:
        Per-window analysis tier, as in
        :func:`repro.streaming.pipeline.analyze_trace`: ``"exact"``
        (default) or ``"sketch"``.  Detection and phase segmentation run
        unchanged on sketched histograms — drift alarms at line rate in
        O(sketch) memory per window — and stay bit-identical across
        backends and chunkings for a fixed sketch seed.
    payload_transport:
        How the process backend ships window columns to its workers
        (``"shm"``/``"pickle"``), as in
        :func:`repro.streaming.pipeline.analyze_trace` — an execution
        knob, never part of the result's identity.

    Returns
    -------
    ScenarioRun
    """
    scenario = get_scenario(scenario)
    n_valid = check_positive_int(n_valid, "n_valid")
    backend_impl = get_backend(backend, n_workers=n_workers, payload_transport=payload_transport)

    # the engine reads src/dst/valid only: skip drawing times and sizes
    source = ScenarioTraceSource(
        scenario, seed=seed, chunk_packets=chunk_packets, block_packets=block_packets,
        columns=ANALYSIS_COLUMNS,
    )
    _logger.debug(
        "running scenario %r (%d phases, %d packets) via %s backend",
        scenario.name, scenario.n_phases, scenario.n_packets, backend_impl.name,
    )
    if detect_quantity is not None and not detectors:
        raise ValueError(
            "detect_quantity was given but no detectors; pass detectors= to enable detection"
        )
    analyzer = StreamAnalyzer(
        n_valid, quantities, keep_windows=keep_windows, mode=mode, sketch=sketch
    )
    folder: Union[StreamAnalyzer, DetectingAnalyzer] = analyzer
    if detectors:  # None or empty both mean "no detection"
        folder = DetectingAnalyzer(analyzer, detectors, quantity=detect_quantity)
    # the source is always ahead of the windows cut from it, so its running
    # per-phase valid tally is complete for every index the attributor sees
    segmenter = PhaseSegmentedAnalyzer(
        n_valid, scenario.n_phases, source.phase_of_valid_index, quantities
    )
    # the one shared fold loop (windows are pooled once, vectors handed to
    # every consumer): identical code to analyze_trace and the service daemon
    windower = PushWindower(n_valid)
    windows = (w for chunk in source for w in windower.push(chunk))
    fold_windows(backend_impl, windows, folder, consumers=(segmenter,))
    stats = {
        **backend_stats(backend_impl),
        "scenario": scenario.name,
        "n_phases": scenario.n_phases,
        "max_buffered_packets": windower.max_buffered_packets,
        "n_chunks": windower.n_chunks,
    }
    analysis = folder.result(stats=stats)
    detection = folder.detection() if isinstance(folder, DetectingAnalyzer) else None
    return ScenarioRun(
        scenario=scenario, analysis=analysis, phases=segmenter.result(), detection=detection
    )
