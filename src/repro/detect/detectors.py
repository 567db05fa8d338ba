"""Streaming change-point detectors over the engine's window stream.

The scenario subsystem (PR 2) scores drift *offline*: it needs the whole
run and the ground-truth phase layout in hand before the per-phase
``|Δmean|/σ`` statistic can be computed.  The detectors here are the
*online* counterpart: they watch the per-window pooled distribution
vectors as the single-pass engine folds them — in stream order, in bounded
memory — and raise an alarm when the stream appears to have left the
regime the running baseline was learned on, without knowing the phase
layout (or even that there are phases).

Every detector follows the same life cycle:

1. **Warm-up** — the first ``warmup`` windows only feed the running
   baseline (an exponentially-weighted per-bin mean of the pooled
   vectors); no alarms can fire.
2. **Watch** — each subsequent window is scored against the baseline
   *before* being folded into it, a detector-specific decision is made,
   and (when no alarm fires) the baseline absorbs the window.
3. **Alarm** — on an alarm the detector resets completely and re-enters
   warm-up, so the baseline re-learns the new regime and later regime
   changes remain detectable.

State is **O(bins)** per detector — one EWMA baseline vector plus a
handful of scalars — never O(windows): detectors are built to ride a
bounded-memory pass over arbitrarily long traces.  All arithmetic is plain float64 in
window order, so alarm sequences inherit the engine's cross-backend
bit-identity guarantee and are invariant to ``chunk_packets``.

Thresholds are tuned on the built-in scenario catalogue: zero alarms on
``stationary`` across seeds, detection within a few windows of the phase
boundaries of ``alpha-drift`` and ``flash-crowd`` (the property harness in
``tests/test_detect_properties.py`` pins exactly that).
"""

from __future__ import annotations

from typing import Mapping, Protocol, Sequence, Union, runtime_checkable

import numpy as np

__all__ = [
    "DETECTOR_NAMES",
    "DriftDetector",
    "EWMADetector",
    "CUSUMDetector",
    "PageHinkleyDetector",
    "get_detector",
    "make_detectors",
]


@runtime_checkable
class DriftDetector(Protocol):
    """Protocol every streaming change-point detector implements.

    A detector consumes one pooled per-window vector at a time (in stream
    order) via :meth:`observe` and answers "did the stream just change
    regime?".  Implementations must keep O(bins) state, reset themselves
    after alarming, and be deterministic — identical input sequences must
    produce identical alarm sequences.
    """

    name: str

    def observe(self, values: np.ndarray) -> bool:
        """Fold one window's pooled vector; return True when an alarm fires."""
        ...

    def reset(self) -> None:
        """Forget everything and re-enter warm-up."""
        ...

    def state_size(self) -> int:
        """Number of floats currently retained (must be O(bins))."""
        ...

    def params(self) -> Mapping[str, float]:
        """The detector's tuning parameters (for reports and manifests)."""
        ...


class _EWMABaseline:
    """Exponentially-weighted per-bin mean of pooled vectors.

    The shared O(bins) building block: detectors score each incoming
    vector against this baseline, then (absent an alarm) fold the vector
    in.  Vectors may grow in length between updates (pooled distributions
    gain bins as larger degrees appear); state is zero-padded, matching the
    zero-fill convention of :class:`repro.analysis.moments.StreamingMoments`.
    """

    __slots__ = ("decay", "count", "_mean")

    def __init__(self, decay: float) -> None:
        self.decay = float(decay)
        self.count = 0
        self._mean = np.zeros(0, dtype=np.float64)

    @property
    def n_bins(self) -> int:
        return int(self._mean.size)

    def _aligned(self, values: np.ndarray) -> np.ndarray:
        """Grow the state and/or zero-pad *values* so both share one length."""
        if values.size > self._mean.size:
            grown = np.zeros(values.size, dtype=np.float64)
            grown[: self._mean.size] = self._mean
            self._mean = grown
        elif values.size < self._mean.size:
            padded = np.zeros(self._mean.size, dtype=np.float64)
            padded[: values.size] = values
            values = padded
        return values

    def update(self, values: np.ndarray) -> None:
        """Fold one vector into the EWMA mean."""
        values = self._aligned(np.asarray(values, dtype=np.float64))
        if self.count == 0:
            self._mean = values.copy()
        else:
            self._mean = self._mean + self.decay * (values - self._mean)
        self.count += 1

    def distance(self, values: np.ndarray) -> float:
        """Relative L1 distance of one vector to the baseline mean.

        ``Σ|x − m| / (Σ|m| + ε)`` — scale-free, robust to individual noisy
        bins, and cheap; the one scalar statistic every detector watches.
        """
        values = self._aligned(np.asarray(values, dtype=np.float64))
        return float(np.sum(np.abs(values - self._mean)) / (np.sum(np.abs(self._mean)) + 1e-12))

    def state_size(self) -> int:
        return int(self._mean.size)

    def state(self) -> dict:
        """Exact baseline state (count + float64 mean copy) for snapshots."""
        return {"count": int(self.count), "mean": self._mean.copy()}

    def restore(self, state: Mapping[str, object]) -> None:
        """Replace the baseline with a :meth:`state` payload."""
        mean = np.asarray(state["mean"], dtype=np.float64)
        if mean.ndim != 1:
            raise ValueError("baseline state mean must be a 1-D float64 vector")
        self.count = int(state["count"])
        self._mean = mean.copy()


class _BaselineDetector:
    """Shared warm-up / reset / bookkeeping machinery of the detectors."""

    def __init__(self, name: str, *, warmup: int, decay: float) -> None:
        if warmup < 2:
            raise ValueError(f"warmup must be >= 2 windows, got {warmup}")
        if not 0.0 < decay < 1.0:
            raise ValueError(f"decay must be in (0, 1), got {decay}")
        self.name = name
        self.warmup = int(warmup)
        self.decay = float(decay)
        self.reset()

    def reset(self) -> None:
        """Forget the baseline and all decision state; re-enter warm-up."""
        self._baseline = _EWMABaseline(self.decay)
        self._reset_decision_state()

    def _reset_decision_state(self) -> None:  # pragma: no cover - overridden
        raise NotImplementedError

    def _decide(self, values: np.ndarray) -> bool:  # pragma: no cover - overridden
        raise NotImplementedError

    def observe(self, values: np.ndarray) -> bool:
        """Score one pooled vector against the baseline; True on alarm.

        The vector is scored *before* it is folded into the baseline, so a
        regime-changing window cannot soften the very statistic that should
        flag it; on an alarm the detector resets and the alarming window is
        deliberately discarded (the new regime's baseline starts from the
        next window).
        """
        values = np.asarray(values, dtype=np.float64)
        if self._baseline.count < self.warmup:
            self._baseline.update(values)
            return False
        if self._decide(values):
            self.reset()
            return True
        self._baseline.update(values)
        return False

    def state_size(self) -> int:
        """Floats retained: the baseline vectors plus the decision scalars."""
        return self._baseline.state_size() + len(self._decision_scalars())

    def _decision_scalars(self) -> tuple:  # pragma: no cover - overridden
        raise NotImplementedError

    def _decision_state(self) -> dict:  # pragma: no cover - overridden
        raise NotImplementedError

    def _restore_decision_state(self, state: Mapping[str, object]) -> None:  # pragma: no cover
        raise NotImplementedError

    def state(self) -> dict:
        """Exact internal state (baseline + decision variables) for snapshots.

        The complement of :meth:`params`: params say how the detector is
        tuned, state says where it is mid-stream.  A detector rebuilt with
        the same params and fed this state via :meth:`restore_state`
        produces the identical alarm sequence on the remaining stream —
        the contract service checkpoint recovery relies on.
        """
        return {"baseline": self._baseline.state(), "decision": self._decision_state()}

    def restore_state(self, state: Mapping[str, object]) -> None:
        """Replace baseline and decision state with a :meth:`state` payload."""
        self._baseline = _EWMABaseline(self.decay)
        self._baseline.restore(state["baseline"])
        self._restore_decision_state(state["decision"])

    def params(self) -> Mapping[str, float]:
        return {"warmup": self.warmup, "decay": self.decay}


class EWMADetector(_BaselineDetector):
    """EWMA baseline-deviation detector over the pooled per-bin moments.

    The control-chart member of the family: each window's deviation from
    the per-bin EWMA baseline (the relative L1 distance) is itself smoothed
    with a short EWMA (*smoothing*), and an alarm fires when the smoothed
    score exceeds *threshold*.  Smoothing is what makes a Shewhart-style
    single-window rule usable here — per-window pooled vectors are noisy,
    and a regime change elevates the deviation for several consecutive
    windows while stationary noise produces isolated spikes.

    Latency is lowest of the three on abrupt changes (flash crowds); slow
    drifts whose per-window deviation stays near the noise floor are CUSUM
    / Page–Hinkley territory.
    """

    def __init__(
        self,
        *,
        threshold: float = 0.10,
        smoothing: float = 0.3,
        warmup: int = 6,
        decay: float = 0.1,
    ) -> None:
        if threshold <= 0:
            raise ValueError(f"threshold must be > 0, got {threshold}")
        if not 0.0 < smoothing <= 1.0:
            raise ValueError(f"smoothing must be in (0, 1], got {smoothing}")
        self.threshold = float(threshold)
        self.smoothing = float(smoothing)
        super().__init__("ewma", warmup=warmup, decay=decay)

    def _reset_decision_state(self) -> None:
        self._score = 0.0
        self._scored = False

    def _decide(self, values: np.ndarray) -> bool:
        distance = self._baseline.distance(values)
        if not self._scored:
            self._score = distance
            self._scored = True
        else:
            self._score += self.smoothing * (distance - self._score)
        return self._score > self.threshold

    def _decision_scalars(self) -> tuple:
        return (self._score, float(self._scored))

    def _decision_state(self) -> dict:
        return {"score": self._score, "scored": self._scored}

    def _restore_decision_state(self, state: Mapping[str, object]) -> None:
        self._score = float(state["score"])
        self._scored = bool(state["scored"])

    def params(self) -> Mapping[str, float]:
        return {**super().params(), "threshold": self.threshold, "smoothing": self.smoothing}


class CUSUMDetector(_BaselineDetector):
    """One-sided CUSUM over the distance-to-running-baseline statistic.

    Watches the relative L1 distance of each window to the EWMA baseline
    and accumulates its *relative excess* over the statistic's own running
    mean: ``S ← max(0, S + d/μ_d − 1 − slack)``; an alarm fires when the
    cumulative sum crosses *threshold*.  While evidence is accumulating
    (``S > 0``) the reference mean ``μ_d`` is frozen, the classic CUSUM
    discipline: the change being accumulated must not be allowed to pull
    up the reference it is measured against.  Accumulation is what
    separates CUSUM from the EWMA detector — a drift too small to alarm in
    any single window still alarms once its evidence has piled up.
    """

    def __init__(
        self,
        *,
        slack: float = 0.6,
        threshold: float = 3.0,
        stat_warmup: int = 4,
        warmup: int = 6,
        decay: float = 0.1,
    ) -> None:
        if slack < 0:
            raise ValueError(f"slack must be >= 0, got {slack}")
        if threshold <= 0:
            raise ValueError(f"threshold must be > 0, got {threshold}")
        if stat_warmup < 1:
            raise ValueError(f"stat_warmup must be >= 1, got {stat_warmup}")
        self.slack = float(slack)
        self.threshold = float(threshold)
        self.stat_warmup = int(stat_warmup)
        super().__init__("cusum", warmup=warmup, decay=decay)

    def _reset_decision_state(self) -> None:
        self._sum = 0.0
        self._stat_mean = 0.0
        self._stat_count = 0

    def _decide(self, values: np.ndarray) -> bool:
        distance = self._baseline.distance(values)
        if self._stat_count < self.stat_warmup:
            # the statistic's own reference mean needs a few observations
            # before excesses against it are meaningful; a plain average
            # weighs them equally (an EWMA seeded from the first distance
            # would be dominated by that one draw)
            self._stat_count += 1
            self._stat_mean += (distance - self._stat_mean) / self._stat_count
            return False
        self._sum = max(0.0, self._sum + distance / (self._stat_mean + 1e-12) - 1.0 - self.slack)
        if self._sum > self.threshold:
            return True
        if self._sum == 0.0:
            # update the reference only while no evidence is accumulating
            self._stat_mean += self.decay * (distance - self._stat_mean)
        self._stat_count += 1
        return False

    def _decision_scalars(self) -> tuple:
        return (self._sum, self._stat_mean, float(self._stat_count))

    def _decision_state(self) -> dict:
        return {"sum": self._sum, "stat_mean": self._stat_mean, "stat_count": self._stat_count}

    def _restore_decision_state(self, state: Mapping[str, object]) -> None:
        self._sum = float(state["sum"])
        self._stat_mean = float(state["stat_mean"])
        self._stat_count = int(state["stat_count"])

    def params(self) -> Mapping[str, float]:
        return {
            **super().params(),
            "slack": self.slack,
            "threshold": self.threshold,
            "stat_warmup": self.stat_warmup,
        }


class PageHinkleyDetector(_BaselineDetector):
    """Page–Hinkley test over the distance-to-running-baseline statistic.

    The classic sequential formulation: maintain the cumulative deviation
    of the distance statistic from its running mean,
    ``m_t = Σ (d_i − d̄_i − δ)``, track its running minimum ``M_t``, and
    alarm when ``m_t − M_t`` exceeds *threshold* — i.e. when the statistic
    has risen persistently above its historical floor.  Like CUSUM it
    accumulates evidence, but against the all-time minimum rather than a
    frozen reference mean, which makes it robust when the statistic's
    noise level is itself noisy.
    """

    def __init__(
        self,
        *,
        delta: float = 0.01,
        threshold: float = 0.15,
        warmup: int = 6,
        decay: float = 0.1,
    ) -> None:
        if delta < 0:
            raise ValueError(f"delta must be >= 0, got {delta}")
        if threshold <= 0:
            raise ValueError(f"threshold must be > 0, got {threshold}")
        self.delta = float(delta)
        self.threshold = float(threshold)
        super().__init__("page-hinkley", warmup=warmup, decay=decay)

    def _reset_decision_state(self) -> None:
        self._cumulative = 0.0
        self._minimum = 0.0
        self._stat_mean = 0.0
        self._stat_count = 0

    def _decide(self, values: np.ndarray) -> bool:
        distance = self._baseline.distance(values)
        self._stat_count += 1
        # incremental mean of the distance statistic since the last reset
        self._stat_mean += (distance - self._stat_mean) / self._stat_count
        self._cumulative += distance - self._stat_mean - self.delta
        self._minimum = min(self._minimum, self._cumulative)
        return (self._cumulative - self._minimum) > self.threshold

    def _decision_scalars(self) -> tuple:
        return (self._cumulative, self._minimum, self._stat_mean, float(self._stat_count))

    def _decision_state(self) -> dict:
        return {
            "cumulative": self._cumulative,
            "minimum": self._minimum,
            "stat_mean": self._stat_mean,
            "stat_count": self._stat_count,
        }

    def _restore_decision_state(self, state: Mapping[str, object]) -> None:
        self._cumulative = float(state["cumulative"])
        self._minimum = float(state["minimum"])
        self._stat_mean = float(state["stat_mean"])
        self._stat_count = int(state["stat_count"])

    def params(self) -> Mapping[str, float]:
        return {**super().params(), "delta": self.delta, "threshold": self.threshold}


_FACTORIES = {
    "ewma": EWMADetector,
    "cusum": CUSUMDetector,
    "page-hinkley": PageHinkleyDetector,
}

#: Names of the built-in detectors, in catalogue order.
DETECTOR_NAMES = tuple(_FACTORIES)


def get_detector(detector: Union[str, DriftDetector], **params) -> DriftDetector:
    """Resolve a detector name (or pass an instance through) to a detector.

    Keyword *params* override the named detector's tuned defaults; passing
    params together with an instance is an error (the instance already
    carries its configuration).
    """
    if isinstance(detector, str):
        try:
            factory = _FACTORIES[detector]
        except KeyError:
            known = ", ".join(DETECTOR_NAMES)
            raise KeyError(f"unknown detector {detector!r}; known detectors: {known}") from None
        return factory(**params)
    if params:
        raise ValueError("detector params can only be given with a detector *name*")
    if not isinstance(detector, DriftDetector):
        raise TypeError(f"not a DriftDetector: {type(detector).__name__}")
    return detector


def make_detectors(detectors: Sequence[Union[str, DriftDetector]]) -> tuple[DriftDetector, ...]:
    """Resolve a sequence of names/instances into fresh detector instances."""
    resolved = tuple(get_detector(d) for d in detectors)
    names = [d.name for d in resolved]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate detector names: {sorted(names)}")
    return resolved
