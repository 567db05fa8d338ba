"""Residual-moment sums used by the PALU ``Λ`` estimator.

Section IV-B of the paper proposes estimating the clustering parameter ``Λ``
from the residuals of the fitted power-law core:

.. math::

    \\frac{\\sum_{d\\ge 2} d\\,[f(d) - c d^{-\\alpha}]}
          {\\sum_{d\\ge 2} [f(d) - c d^{-\\alpha}]}
    \\;\\approx\\; \\frac{\\Lambda + \\Lambda^2}{e^{\\Lambda} - \\Lambda - 1}

where ``f(d)`` is the observed fraction of degree-``d`` nodes.  The functions
here compute the two residual sums and the ratio; the numerical inversion of
the right-hand side lives in :mod:`repro.core.palu_fit`.

The module also provides :class:`StreamingMoments`, a single-pass (Welford)
mean/σ accumulator over vectors whose length may grow between updates.  It
backs the out-of-core analysis engine
(:class:`repro.streaming.pipeline.StreamAnalyzer`), which folds per-window
pooled distributions into running cross-window moments instead of stacking
every window in memory.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from repro._util.validation import check_nonnegative, check_positive

__all__ = [
    "StackedMoments",
    "StreamingMoments",
    "residual_moment_sums",
    "residual_moment_ratio",
    "poisson_moment_rhs",
    "lambda_moment_rhs",
]


class StreamingMoments:
    """Single-pass mean and standard deviation of a stream of vectors.

    Implements Welford's online algorithm element-wise over 1-D vectors.
    Vectors may grow in length between updates (pooled distributions gain
    bins as larger degrees appear); earlier, shorter samples are treated as
    zero in the new trailing positions, which is exactly the zero-fill
    convention of :func:`repro.analysis.pooling.aggregate_pooled`.

    Folding is associative only in exact arithmetic; in floating point the
    result depends on update order, so every execution backend must fold in
    stream (window) order — which is what makes the serial and process
    backends bit-identical.
    """

    def __init__(self, n_bins: int = 0) -> None:
        if n_bins < 0:
            raise ValueError("n_bins must be >= 0")
        self._count = 0
        self._mean = np.zeros(int(n_bins), dtype=np.float64)
        self._m2 = np.zeros(int(n_bins), dtype=np.float64)

    @property
    def count(self) -> int:
        """Number of vectors folded in so far."""
        return self._count

    @property
    def n_bins(self) -> int:
        """Current vector length (the longest seen so far)."""
        return int(self._mean.size)

    def update(self, values: np.ndarray) -> None:
        """Fold one sample vector into the running moments."""
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 1:
            raise ValueError("StreamingMoments.update expects a 1-D vector")
        if values.size > self._mean.size:
            # zero-padding the state is exact: every earlier sample contributed
            # zero in the new trailing bins, for which mean = M2 = 0
            grown = np.zeros(values.size, dtype=np.float64)
            grown[: self._mean.size] = self._mean
            self._mean = grown
            grown2 = np.zeros(values.size, dtype=np.float64)
            grown2[: self._m2.size] = self._m2
            self._m2 = grown2
        elif values.size < self._mean.size:
            padded = np.zeros(self._mean.size, dtype=np.float64)
            padded[: values.size] = values
            values = padded
        self._count += 1
        delta = values - self._mean
        self._mean = self._mean + delta / self._count
        self._m2 = self._m2 + delta * (values - self._mean)

    def state(self) -> dict:
        """Exact internal state (count and float64 accumulators) for snapshots.

        The returned arrays are copies of the raw Welford accumulators; a
        moments object rebuilt via :meth:`from_state` continues the fold with
        bit-identical arithmetic, which is what makes service checkpoint
        recovery (:mod:`repro.service.checkpoint`) byte-exact.
        """
        return {
            "count": int(self._count),
            "mean": self._mean.copy(),
            "m2": self._m2.copy(),
        }

    @classmethod
    def from_state(cls, state: dict) -> "StreamingMoments":
        """Rebuild a moments accumulator from a :meth:`state` snapshot."""
        mean = np.asarray(state["mean"], dtype=np.float64)
        m2 = np.asarray(state["m2"], dtype=np.float64)
        count = int(state["count"])
        if mean.ndim != 1 or m2.ndim != 1 or mean.size != m2.size:
            raise ValueError("moments state arrays must be 1-D and equal-sized")
        if count < 0:
            raise ValueError("moments state count must be >= 0")
        moments = cls()
        moments._count = count
        moments._mean = mean.copy()
        moments._m2 = m2.copy()
        return moments

    def mean(self) -> np.ndarray:
        """Running element-wise mean."""
        return self._mean.copy()

    def std(self, *, ddof: int = 0) -> np.ndarray:
        """Running element-wise standard deviation (population by default)."""
        if self._count - ddof <= 0:
            return np.zeros(self._mean.size, dtype=np.float64)
        variance = np.maximum(self._m2 / (self._count - ddof), 0.0)
        return np.sqrt(variance)


def _widened(block: np.ndarray, width: int) -> np.ndarray:
    """*block* zero-padded on the right to *width* columns."""
    grown = np.zeros((block.shape[0], width), dtype=block.dtype)
    grown[:, : block.shape[1]] = block
    return grown


class StackedMoments:
    """:class:`StreamingMoments` for several vector streams updated together.

    One Welford state of shape ``(rows, width)``, where every update folds
    one vector per row and row ``k`` remembers its own length
    ``widths[k]`` (the longest vector seen on that row).  Positions past a
    row's vector are folded as zeros and stay exactly ``0.0`` until the row
    grows into them, so each row reads back bit-identical to a
    :class:`StreamingMoments` fed that row's vectors alone.
    """

    def __init__(self, n_rows: int, width: int = 0) -> None:
        self.count = 0
        self.widths = np.zeros(n_rows, dtype=np.int64)
        self._mean = np.zeros((n_rows, width), dtype=np.float64)
        self._m2 = np.zeros((n_rows, width), dtype=np.float64)

    def update(self, values: np.ndarray, widths: np.ndarray) -> None:
        """Fold one ``(rows, w)`` block whose row ``k`` has length ``widths[k]``.

        Entries of row ``k`` past ``widths[k]`` must be ``0.0``.
        """
        width = values.shape[1]
        if width > self._mean.shape[1]:
            # zero-padding the state is exact, as in StreamingMoments.update
            self._mean = _widened(self._mean, width)
            self._m2 = _widened(self._m2, width)
        elif width < self._mean.shape[1]:
            values = _widened(values, self._mean.shape[1])
        self.count += 1
        delta = values - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (values - self._mean)
        np.maximum(self.widths, widths, out=self.widths)

    def mean(self, row: int) -> np.ndarray:
        """Running mean of one row."""
        return self._mean[row, : self.widths[row]].copy()

    def std(self, row: int) -> np.ndarray:
        """Running population standard deviation of one row."""
        if self.count == 0:
            return np.zeros(int(self.widths[row]), dtype=np.float64)
        return np.sqrt(np.maximum(self._m2[row, : self.widths[row]] / self.count, 0.0))

    def state(self, row: int) -> dict:
        """One row's state in :meth:`StreamingMoments.state` form."""
        width = self.widths[row]
        return {
            "count": int(self.count),
            "mean": self._mean[row, :width].copy(),
            "m2": self._m2[row, :width].copy(),
        }

    @classmethod
    def from_states(cls, states) -> "StackedMoments":
        """Stack per-row :meth:`StreamingMoments.state` payloads of one count."""
        rows = [StreamingMoments.from_state(state) for state in states]
        if len({row.count for row in rows}) > 1:
            raise ValueError("stacked moments rows must share one count")
        stacked = cls(len(rows), max((row.n_bins for row in rows), default=0))
        for k, row in enumerate(rows):
            stacked._mean[k, : row.n_bins] = row._mean
            stacked._m2[k, : row.n_bins] = row._m2
            stacked.widths[k] = row.n_bins
        stacked.count = rows[0].count if rows else 0
        return stacked


def residual_moment_sums(
    degree_fractions: np.ndarray,
    c: float,
    alpha: float,
    *,
    d_min: int = 2,
    d_max: int | None = None,
    clip_negative: bool = True,
) -> Tuple[float, float]:
    """Return ``(Σ d·resid, Σ resid)`` for degrees ``d_min <= d <= d_max``.

    Parameters
    ----------
    degree_fractions:
        Dense vector of observed degree fractions indexed by ``d-1``
        (``degree_fractions[0]`` is the fraction of degree-1 nodes).
    c, alpha:
        Power-law core parameters fitted from the tail (Eq. 4).
    d_min:
        Smallest degree included in the sums (the paper uses 2).
    d_max:
        Largest degree included (default: the whole support).  Restricting
        the sums to the range where the Poisson residual is non-negligible
        makes the estimator far less sensitive to small errors in the fitted
        core ``(c, α)`` accumulating over thousands of tail degrees.
    clip_negative:
        The residual ``f(d) − c d^{-α}`` can dip below zero from sampling
        noise; clipping at zero (default) keeps the moment ratio inside the
        range of the analytic right-hand side.

    Returns
    -------
    (float, float)
        The weighted sum ``Σ d·resid(d)`` and the plain sum ``Σ resid(d)``
        over the selected degree range.
    """
    f = np.asarray(degree_fractions, dtype=np.float64)
    if f.ndim != 1:
        raise ValueError("degree_fractions must be 1-D")
    c = check_nonnegative(c, "c")
    alpha = check_positive(alpha, "alpha")
    if d_min < 1:
        raise ValueError("d_min must be >= 1")
    if d_max is not None and d_max < d_min:
        raise ValueError("d_max must be >= d_min")
    if f.size < d_min:
        return 0.0, 0.0
    d = np.arange(1, f.size + 1, dtype=np.float64)
    resid = f - c * d ** (-alpha)
    if clip_negative:
        resid = np.clip(resid, 0.0, None)
    sel = d >= d_min
    if d_max is not None:
        sel &= d <= d_max
    weighted = float(np.sum(d[sel] * resid[sel]))
    plain = float(np.sum(resid[sel]))
    return weighted, plain


def residual_moment_ratio(
    degree_fractions: np.ndarray,
    c: float,
    alpha: float,
    *,
    d_min: int = 2,
    d_max: int | None = None,
) -> float:
    """The empirical left-hand side ``Σ d·resid / Σ resid`` of the Λ equation.

    Returns ``nan`` when the residual mass is (numerically) zero, which the
    caller interprets as "no detectable unattached component".
    """
    weighted, plain = residual_moment_sums(degree_fractions, c, alpha, d_min=d_min, d_max=d_max)
    if plain <= 1e-15:
        return math.nan
    return weighted / plain


def poisson_moment_rhs(m: float) -> float:
    """Analytic moment ratio of a zero/one-truncated Poisson residual.

    For residuals of the exact Poisson form ``u·m^d/d!`` (``m = λp``), the
    population value of ``Σ_{d>=2} d·resid / Σ_{d>=2} resid`` is

    .. math:: g(m) = \\frac{m\\,(e^{m} - 1)}{e^{m} - m - 1}

    whose Taylor expansion at 0 is ``2 + m/3 + O(m²)`` — the limit quoted in
    the paper.  (The paper prints the numerator as ``Λ + Λ²``; that form is
    inconsistent with its own Taylor limit and diverges as ``Λ → 0``, so this
    library uses the exact expression above as the default and keeps the
    printed variant available as :func:`lambda_moment_rhs` with
    ``form="paper"`` for comparison.)
    """
    m = check_nonnegative(m, "m")
    if m < 1e-8:
        return 2.0 + m / 3.0
    em1 = math.expm1(m)
    return m * em1 / (em1 - m)


def lambda_moment_rhs(Lambda: float, *, form: str = "exact") -> float:
    """Right-hand side of the Λ moment equation (Section IV-B).

    Parameters
    ----------
    Lambda:
        Candidate value of the clustering parameter (``Λ = e·λ·p`` in the
        paper's parameterisation; for ``form="exact"`` the argument is the
        Poisson mean ``m = λ·p`` itself).
    form:
        ``"exact"`` (default) evaluates :func:`poisson_moment_rhs`;
        ``"paper"`` evaluates the literal printed expression
        ``(Λ + Λ²)/(e^Λ − Λ − 1)``.
    """
    Lambda = check_nonnegative(Lambda, "Lambda")
    if form == "exact":
        return poisson_moment_rhs(Lambda)
    if form == "paper":
        if Lambda < 1e-8:
            # the printed expression diverges like 2/Λ as Λ -> 0
            return math.inf if Lambda == 0 else (Lambda + Lambda**2) / (math.expm1(Lambda) - Lambda)
        return (Lambda + Lambda * Lambda) / (math.expm1(Lambda) - Lambda)
    raise ValueError(f"unknown form {form!r}; expected 'exact' or 'paper'")
