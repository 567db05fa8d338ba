"""Phase-segmented windowed analysis and the drift statistic.

The paper pools per-window distributions under the assumption that every
window is drawn from the *same* stationary traffic graph, so pooling across
the whole trace is meaningful.  A scenario (:mod:`repro.scenarios`) breaks
that assumption on purpose: the stream moves through phases with different
substrates.  This module attributes each analysis window to the phase it
(mostly) falls in, folds per-phase pooled distributions with the same
in-order Welford fold the engine uses (so per-phase results inherit the
cross-backend bit-identity guarantee), and quantifies how much the pooled
statistics actually moved between adjacent phases:

    drift per bin  =  |Δ mean| / sqrt(σ_a² + σ_b²)

— a per-bin standardised mean difference.  Near-zero drift on a stationary
scenario and large drift across a regime change is the quantitative version
of "the paper's pooling assumption held / did not hold here".

Attribution is by window *midpoint*: window ``k`` covers valid packets
``[k·N_V, (k+1)·N_V)`` of the stream, and is assigned to the phase owning
valid packet ``k·N_V + N_V//2``.  Every window lands in exactly one phase
(the assignment is a function), which the property harness checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from repro._util.validation import check_positive_int
from repro.analysis.moments import StreamingMoments
from repro.analysis.pooling import PooledDistribution, pool_differential_cumulative

__all__ = ["PhaseDrift", "PhaseSegmentedAnalysis", "PhaseSegmentedAnalyzer"]


@dataclass(frozen=True)
class PhaseDrift:
    """Standardised pooled-mean drift between two adjacent phases.

    Attributes
    ----------
    phase_a / phase_b:
        The adjacent phase indices compared (``phase_b == phase_a + 1``
        among phases that received at least one window).
    per_bin:
        ``|Δmean| / sqrt(σ_a² + σ_b²)`` per binary-log bin; bins where both
        σ vanish are 0 when the means agree and ``inf`` when they differ.
    score:
        The scenario-level headline number: the mean per-bin drift, which
        is ``inf`` when any bin drifted with zero variance (a zero-variance
        mean shift is infinitely significant — typical when a phase held a
        single window) and 0 only when the phases pooled identically.
    """

    phase_a: int
    phase_b: int
    per_bin: np.ndarray
    score: float


def _pad(vector: np.ndarray, n_bins: int) -> np.ndarray:
    """Zero-pad a pooled vector up to *n_bins* (bins beyond dmax hold 0)."""
    if vector.size >= n_bins:
        return vector
    return np.concatenate([vector, np.zeros(n_bins - vector.size)])


def drift_between(a: PooledDistribution, b: PooledDistribution) -> tuple[np.ndarray, float]:
    """Per-bin standardised drift between two pooled distributions."""
    n_bins = max(a.n_bins, b.n_bins)
    mean_a, mean_b = _pad(a.values, n_bins), _pad(b.values, n_bins)
    sigma_a = _pad(a.sigma if a.sigma is not None else np.zeros(a.n_bins), n_bins)
    sigma_b = _pad(b.sigma if b.sigma is not None else np.zeros(b.n_bins), n_bins)
    delta = np.abs(mean_b - mean_a)
    scale = np.sqrt(sigma_a**2 + sigma_b**2)
    with np.errstate(divide="ignore", invalid="ignore"):
        per_bin = np.where(scale > 0, delta / np.where(scale > 0, scale, 1.0),
                           np.where(delta > 0, np.inf, 0.0))
    # a zero-variance mean shift must dominate the score, not be dropped —
    # averaging only the finite bins would report 0 drift for (e.g.) phases
    # holding a single window each, exactly when the shift is most stark
    score = float(per_bin.mean()) if per_bin.size else 0.0
    return per_bin, score


class PhaseSegmentedAnalyzer:
    """Incremental consumer folding window results into per-phase aggregates.

    Mirrors :class:`repro.streaming.pipeline.StreamAnalyzer` but keyed by
    phase: feed window results *in stream order* via :meth:`update`; each is
    attributed through *phase_of_valid_index* (any callable mapping a global
    valid-packet index to a phase index — e.g.
    :meth:`repro.scenarios.ScenarioTraceSource.phase_of_valid_index`) and
    folded into that phase's running pooled moments.  State is O(phases ×
    quantities × bins), independent of window count, so phase segmentation
    rides along with bounded-memory (``keep_windows=False``) runs for free.
    """

    def __init__(
        self,
        n_valid: int,
        n_phases: int,
        phase_of_valid_index: Callable[[int], int],
        quantities: Sequence[str],
    ) -> None:
        self.n_valid = check_positive_int(n_valid, "n_valid")
        self.n_phases = check_positive_int(n_phases, "n_phases")
        self.quantities = tuple(quantities)
        self._phase_of = phase_of_valid_index
        self._moments = [
            {q: StreamingMoments() for q in self.quantities} for _ in range(self.n_phases)
        ]
        self._totals = [{q: 0 for q in self.quantities} for _ in range(self.n_phases)]
        self._window_phase: list[int] = []

    def update(self, result, *, pooled: Mapping[str, PooledDistribution] | None = None) -> None:
        """Attribute one :class:`WindowResult` (in stream order) and fold it.

        *pooled* optionally supplies the window's already-pooled
        distributions (keyed by quantity) to share the pooling work with a
        :class:`~repro.streaming.pipeline.StreamAnalyzer` consuming the same
        stream; entries must equal
        ``pool_differential_cumulative(result.histograms[q])``.
        """
        window = len(self._window_phase)
        midpoint = window * self.n_valid + self.n_valid // 2
        phase = int(self._phase_of(midpoint))
        if not 0 <= phase < self.n_phases:
            raise ValueError(f"phase attribution returned {phase}, outside 0..{self.n_phases - 1}")
        self._window_phase.append(phase)
        for quantity in self.quantities:
            window_pooled = (
                pooled[quantity] if pooled is not None and quantity in pooled
                else pool_differential_cumulative(result.histograms[quantity])
            )
            self._moments[phase][quantity].update(window_pooled.values)
            self._totals[phase][quantity] += window_pooled.total

    def result(self) -> "PhaseSegmentedAnalysis":
        """Finalize into an immutable :class:`PhaseSegmentedAnalysis`."""
        pooled: list[dict[str, PooledDistribution] | None] = []
        for phase in range(self.n_phases):
            if not any(m.count for m in self._moments[phase].values()):
                pooled.append(None)
                continue
            per_quantity = {}
            for quantity in self.quantities:
                moments = self._moments[phase][quantity]
                edges = 2 ** np.arange(moments.n_bins, dtype=np.int64)
                per_quantity[quantity] = PooledDistribution(
                    bin_edges=edges,
                    values=moments.mean(),
                    sigma=moments.std(ddof=0),
                    total=self._totals[phase][quantity],
                )
            pooled.append(per_quantity)
        return PhaseSegmentedAnalysis(
            n_valid=self.n_valid,
            quantities=self.quantities,
            window_phase=np.asarray(self._window_phase, dtype=np.int64),
            _pooled=tuple(pooled),
        )


@dataclass(frozen=True, eq=False)
class PhaseSegmentedAnalysis:
    """Per-phase pooled distributions of one windowed run, plus drift.

    Attributes
    ----------
    n_valid:
        Window size the run used.
    quantities:
        Quantity names analysed.
    window_phase:
        Phase index of every window, in stream order — a partition: each
        window appears in exactly one phase.
    """

    n_valid: int
    quantities: tuple[str, ...]
    window_phase: np.ndarray
    _pooled: tuple[Mapping[str, PooledDistribution] | None, ...]

    @property
    def n_phases(self) -> int:
        """Number of phases the attribution covered (including empty ones)."""
        return len(self._pooled)

    @property
    def n_windows(self) -> int:
        """Total windows attributed across all phases."""
        return int(self.window_phase.size)

    def windows_in_phase(self, phase: int) -> int:
        """Number of windows attributed to one phase."""
        return int(np.count_nonzero(self.window_phase == phase))

    def pooled(self, phase: int, quantity: str) -> PooledDistribution:
        """Pooled distribution of one quantity over one phase's windows."""
        if quantity not in self.quantities:
            raise KeyError(f"quantity {quantity!r} was not analysed; available: {list(self.quantities)}")
        per_quantity = self._pooled[phase]
        if per_quantity is None:
            raise ValueError(f"phase {phase} received no complete windows; nothing to pool")
        return per_quantity[quantity]

    def occupied_phases(self) -> tuple[int, ...]:
        """Phases that received at least one window, in order."""
        return tuple(i for i, p in enumerate(self._pooled) if p is not None)

    def drift(self, quantity: str) -> tuple[PhaseDrift, ...]:
        """Drift between each pair of *adjacent occupied* phases."""
        occupied = self.occupied_phases()
        drifts = []
        for a, b in zip(occupied, occupied[1:]):
            per_bin, score = drift_between(self.pooled(a, quantity), self.pooled(b, quantity))
            drifts.append(PhaseDrift(phase_a=a, phase_b=b, per_bin=per_bin, score=score))
        return tuple(drifts)

    def max_drift(self, quantity: str) -> float:
        """Largest adjacent-phase drift score (0 for single-phase runs)."""
        drifts = self.drift(quantity)
        return max((d.score for d in drifts), default=0.0)

    def as_rows(self, quantity: str) -> list[dict]:
        """Per-phase summary rows (for tables / the CLI)."""
        rows = []
        drift_by_pair = {d.phase_b: d.score for d in self.drift(quantity)}
        for phase in range(self.n_phases):
            row: dict[str, object] = {"phase": phase, "windows": self.windows_in_phase(phase)}
            if self._pooled[phase] is not None:
                pooled = self.pooled(phase, quantity)
                row["D(d=1)"] = round(float(pooled.values[0]), 4) if pooled.n_bins else 0.0
                row["bins"] = pooled.n_bins
                row["drift_vs_prev"] = round(drift_by_pair[phase], 4) if phase in drift_by_pair else ""
            else:
                row["D(d=1)"] = ""
                row["bins"] = 0
                row["drift_vs_prev"] = ""
            rows.append(row)
        return rows
