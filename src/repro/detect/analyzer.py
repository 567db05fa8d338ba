"""Detection riding the single-pass engine: :class:`DetectingAnalyzer`.

The PR-1 engine folds window results into a
:class:`~repro.streaming.pipeline.StreamAnalyzer` in stream order on every
execution backend.  :class:`DetectingAnalyzer` wraps that analyzer and
feeds the same in-order result stream to a set of
:class:`~repro.detect.detectors.DriftDetector`\\ s — so online change-point
detection works unchanged with the serial and process backends,
costs one extra O(bins) pass per window, and inherits the engine's
bit-identity guarantee: the alarm sequence is identical on every backend
and invariant to chunking.

Detection is tier-agnostic: detectors score pooled vectors, never raw
windows, so wrapping a sketch-mode analyzer
(``StreamAnalyzer(..., mode="sketch")``) monitors the sketch-estimated
histograms with the same code path — drift alarms at line rate in
O(sketch) memory per window, still deterministic per sketch seed and
bit-identical across backends (pinned by ``tests/test_detect_sketch_golden.py``).

The wrapper is API-compatible with ``StreamAnalyzer`` where it matters
(``update`` / ``result`` / ``n_windows``), so it drops into any fold loop::

    analyzer = DetectingAnalyzer(StreamAnalyzer(n_valid), ("ewma", "cusum"))
    for result in backend.map(analyze_window, windows):
        analyzer.update(result)
    analysis = analyzer.result(stats={"backend": backend.name})
    analyzer.detection().alarms["cusum"]     # window indices that alarmed
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence, Union

from repro.analysis.pooling import PooledBlock
from repro.detect.detectors import DriftDetector, make_detectors
from repro.streaming.pipeline import StreamAnalyzer, WindowedAnalysis, WindowResult
from repro.streaming.sketch import SketchConfig

__all__ = ["DEFAULT_DETECT_QUANTITY", "DetectionResult", "DetectingAnalyzer"]

#: Quantity the detectors monitor when the caller does not choose one: the
#: same headline quantity the scenario drift statistic reports on.  Falls
#: back to the first analysed quantity when it is not being analysed.
DEFAULT_DETECT_QUANTITY = "source_fanout"


@dataclass(frozen=True)
class DetectionResult:
    """Alarm sequences one detection pass produced.

    Attributes
    ----------
    quantity:
        The monitored quantity (detectors watch one pooled vector stream).
    n_windows:
        Windows observed by the pass.
    detectors:
        Detector names, in catalogue order.
    alarms:
        Per-detector alarm window indices, in stream order.  An alarm at
        index ``k`` means window ``k`` (0-based) was flagged as the first
        window of a new regime.
    params:
        Per-detector tuning parameters (for reports and manifests).
    """

    quantity: str
    n_windows: int
    detectors: tuple[str, ...]
    alarms: Mapping[str, tuple[int, ...]]
    params: Mapping[str, Mapping[str, float]]

    def n_alarms(self, detector: str) -> int:
        """Number of alarms one detector raised."""
        return len(self.alarms[detector])

    def as_rows(self) -> list[dict]:
        """One summary row per detector (for tables / the CLI)."""
        return [
            {
                "detector": name,
                "alarms": len(self.alarms[name]),
                "windows": " ".join(str(i) for i in self.alarms[name]) or "-",
            }
            for name in self.detectors
        ]


class DetectingAnalyzer:
    """Wrap a :class:`StreamAnalyzer` with online drift detection.

    Forwards every :meth:`update` to the wrapped analyzer, then scores the
    window's pooled vector of *quantity* through each detector.  Like the
    analyzer it wraps, it must be fed window results **in stream order** —
    which every execution backend guarantees — and keeps state O(bins)
    per detector (plus the alarm indices themselves), never O(windows).
    """

    def __init__(
        self,
        analyzer: StreamAnalyzer,
        detectors: Sequence[Union[str, DriftDetector]],
        *,
        quantity: str | None = None,
    ) -> None:
        if not detectors:
            raise ValueError("DetectingAnalyzer needs at least one detector")
        self.analyzer = analyzer
        self.detectors = make_detectors(detectors)
        if quantity is None:
            quantity = (
                DEFAULT_DETECT_QUANTITY
                if DEFAULT_DETECT_QUANTITY in analyzer.quantities
                else analyzer.quantities[0]
            )
        self.quantity = quantity
        if self.quantity not in analyzer.quantities:
            raise ValueError(
                f"monitored quantity {self.quantity!r} is not analysed; "
                f"available: {list(analyzer.quantities)}"
            )
        self._alarms: dict[str, list[int]] = {d.name: [] for d in self.detectors}
        self._n_alarms = 0

    @property
    def n_windows(self) -> int:
        """Windows folded so far (delegates to the wrapped analyzer)."""
        return self.analyzer.n_windows

    @property
    def quantities(self) -> tuple[str, ...]:
        """Quantities of the wrapped analyzer (API compatibility)."""
        return self.analyzer.quantities

    @property
    def sketch_config(self) -> SketchConfig | None:
        """Sketch config of the wrapped analyzer (``None`` in exact mode)."""
        return self.analyzer.sketch_config

    def update(self, result: WindowResult, *, pooled: PooledBlock | None = None) -> None:
        """Fold one window result, then score it through every detector.

        *pooled* has the same sharing semantics as
        :meth:`StreamAnalyzer.update`: detection reads the monitored row of
        the vectors the fold already pooled instead of pooling again.
        """
        self.analyzer.update(result, pooled=pooled)
        if pooled is None:
            pooled = result.histograms.select(self.analyzer.quantities).pooled()
        vector = pooled.vector(self.quantity)
        index = self.analyzer.n_windows - 1
        for detector in self.detectors:
            if detector.observe(vector):
                self._alarms[detector.name].append(index)
                self._n_alarms += 1

    def snapshot(self) -> dict:
        """Exact detection state for service checkpoints.

        Captures the wrapped analyzer's fold state plus every detector's
        internal state (:meth:`~repro.detect.detectors._BaselineDetector.state`)
        and the alarm indices.  Detector instances that do not implement the
        ``state``/``restore_state`` contract cannot be checkpointed.
        """
        entries = []
        for detector in self.detectors:
            state_of = getattr(detector, "state", None)
            if state_of is None or not hasattr(detector, "restore_state"):
                raise ValueError(
                    f"detector {detector.name!r} does not implement state()/restore_state(); "
                    "cannot snapshot"
                )
            entries.append({"name": detector.name, "state": state_of()})
        return {
            "analyzer": self.analyzer.snapshot(),
            "quantity": self.quantity,
            "detectors": entries,
            "alarms": {name: list(indices) for name, indices in self._alarms.items()},
        }

    def restore(self, state: Mapping[str, object]) -> None:
        """Replace analyzer, detector, and alarm state with a snapshot.

        The wrapper must have been constructed with the same detectors (by
        name, in order) and monitored quantity as the snapshotted one.
        """
        if state["quantity"] != self.quantity:
            raise ValueError("snapshot monitors a different quantity than this analyzer")
        entries = state["detectors"]
        names = tuple(entry["name"] for entry in entries)
        if names != tuple(d.name for d in self.detectors):
            raise ValueError(
                f"snapshot detectors {names} do not match this analyzer's "
                f"{tuple(d.name for d in self.detectors)}"
            )
        self.analyzer.restore(state["analyzer"])
        for detector, entry in zip(self.detectors, entries):
            detector.restore_state(entry["state"])
        self._alarms = {name: list(indices) for name, indices in dict(state["alarms"]).items()}
        self._n_alarms = sum(len(indices) for indices in self._alarms.values())

    def result(self, *, stats: Mapping[str, object] | None = None) -> WindowedAnalysis:
        """Finalize the wrapped analyzer (detection does not alter it)."""
        return self.analyzer.result(stats=stats)

    @property
    def n_alarms(self) -> int:
        """Alarms raised so far by every detector together.

        Equal to ``sum(len(a) for a in self.detection().alarms.values())``
        without building the :class:`DetectionResult`.
        """
        return self._n_alarms

    def detection(self) -> DetectionResult:
        """The alarm sequences observed so far, frozen."""
        return DetectionResult(
            quantity=self.quantity,
            n_windows=self.analyzer.n_windows,
            detectors=tuple(d.name for d in self.detectors),
            alarms={name: tuple(indices) for name, indices in self._alarms.items()},
            params={d.name: dict(d.params()) for d in self.detectors},
        )

    def state_size(self) -> int:
        """Total floats retained by all detectors (O(bins), not O(windows))."""
        return sum(d.state_size() for d in self.detectors)
