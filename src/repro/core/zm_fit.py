"""Fitting the modified Zipf–Mandelbrot model to pooled observations.

The paper selects ``(α, δ)`` by "minimizing the differences between the
observed differential cumulative distributions" and the model's (Section
II-B), i.e. a nonlinear least-squares problem over the binary-log-pooled
bins.  This module implements that fit:

1. a coarse grid scan over ``α ∈ [1, 4]`` and ``δ ∈ (−1, 10]`` to find a
   good basin (the objective is multimodal when the d=1 bin dominates), then
2. a Nelder–Mead refinement of the best grid point.

The objective is the mean squared error between the ``log10`` of the pooled
probabilities, optionally weighted by the inverse per-bin variance when the
observation carries cross-window ``σ(d_i)`` information — matching how the
log-log plots of Figure 3 weight every decade equally.

One evaluation costs O(bins), not O(dmax).  For ``α > 1`` the unnormalised
model mass of the bin ``lo..hi`` is a difference of Hurwitz zetas,
``ζ(α, lo+δ) − ζ(α, hi+1+δ)``; the masses of the model's own log2 bins over
``1..dmax`` are normalised by their sum and then gathered onto the
observation's bins through an index map built once per fit
(:func:`~repro.analysis.comparison.pooled_error_scorer`), which aligns them
exactly as the dense model curve would be.  For
``α <= 1`` the series diverge, so the objective pools the dense pmf over
``1..dmax`` instead (:func:`~repro.core.zipf_mandelbrot.zm_differential_cumulative`,
which also draws the plotted model curve and is the tests' reference).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro._util.validation import check_positive_int
from repro.analysis.comparison import pooled_error_scorer
from repro.analysis.histogram import DegreeHistogram
from repro.analysis.pooling import PooledDistribution, log2_bin_edges, pool_differential_cumulative
from repro.core.zipf_mandelbrot import ZipfMandelbrotModel, zm_differential_cumulative

__all__ = ["ZMFitResult", "fit_zipf_mandelbrot", "fit_zipf_mandelbrot_histogram"]

#: Default coarse grid over the exponent α (paper range is [1.5, 3] but the
#: measured fits of Figure 3 reach down to α ≈ 1.5 and up to ≈ 2.3, so the
#: scan is kept a little wider).
_DEFAULT_ALPHA_GRID = np.linspace(1.05, 4.0, 30)

#: Default coarse grid over the offset δ; values just above −1 sharpen the
#: d = 1 probability, large positive values flatten the head.
_DEFAULT_DELTA_GRID = np.concatenate(
    [np.linspace(-0.95, 0.0, 20), np.linspace(0.05, 2.0, 14), np.linspace(2.5, 10.0, 8)]
)

#: Largest ratio of ``ζ(α, lo+δ)`` to a bin's mass for which the mass is
#: taken as a difference of zetas.  The difference loses one of the ~16
#: digits per factor of ten, so 1e3 keeps every mass within about 1e-12 of
#: the direct sum.
_MAX_CANCELLATION = 1e3


@dataclass(frozen=True)
class ZMFitResult:
    """Result of a Zipf–Mandelbrot fit.

    Attributes
    ----------
    alpha, delta:
        Fitted model parameters.
    dmax:
        Support size used for the fit (largest observed degree).
    error:
        Final value of the fitting objective (log-space pooled MSE).
    n_bins:
        Number of informative (non-empty) pooled bins used.
    converged:
        Whether the local refinement reported convergence.
    """

    alpha: float
    delta: float
    dmax: int
    error: float
    n_bins: int
    converged: bool

    def model(self) -> ZipfMandelbrotModel:
        """The fitted model object."""
        return ZipfMandelbrotModel(alpha=self.alpha, delta=self.delta, dmax=self.dmax)

    def as_row(self) -> dict:
        """Dictionary form used by the experiment tables."""
        return {
            "alpha": round(self.alpha, 3),
            "delta": round(self.delta, 3),
            "dmax": self.dmax,
            "log_mse": round(self.error, 5),
            "bins": self.n_bins,
            "converged": self.converged,
        }


class _PooledModel:
    """The model on ``1..dmax`` pooled on its log2 bins, O(bins) per ``(α, δ)``.

    The bins are fixed per fit: bin ``i`` holds the degrees ``bounds[i] ..
    bounds[i+1] - 1`` of ``edges = log2_bin_edges(dmax)``.
    """

    def __init__(self, dmax: int) -> None:
        from scipy.special import zeta

        self._zeta = zeta
        self.dmax = dmax
        self.edges = log2_bin_edges(dmax)
        self.bounds = np.append(self.edges // 2 + 1, dmax + 1)
        self.widths = np.diff(self.bounds)

    def masses(self, alpha: float, delta: float) -> np.ndarray:
        """The normalised bin masses for ``α > 1``.

        Bin ``i``'s mass is ``ζ(α, bounds[i]+δ) − ζ(α, bounds[i+1]+δ)``.
        Where a bin is narrow against its offset, as the bin holding ``dmax``
        can be, or ``α`` is close to 1, the two zetas share most of their
        digits: their ratio to the mass is about ``(lo+δ)/(width·(α−1))``.  A
        bin whose ratio passes ``_MAX_CANCELLATION`` is summed directly
        instead.
        """
        bounds = self.bounds
        offsets = bounds + delta
        z = self._zeta(alpha, offsets)
        masses = z[:-1] - z[1:]
        cancellation = offsets[:-1] / (self.widths * (alpha - 1.0))
        for i in np.flatnonzero(cancellation > _MAX_CANCELLATION):
            masses[i] = np.sum((np.arange(bounds[i], bounds[i + 1]) + delta) ** -alpha)
        return masses / masses.sum()


def _objective(params: np.ndarray, score: Callable[[np.ndarray], float], model: _PooledModel) -> float:
    """*score* (a :func:`pooled_error_scorer` on ``model.edges``) of the model at *params*."""
    alpha, delta = float(params[0]), float(params[1])
    if alpha <= 0.05 or alpha > 10.0 or 1.0 + delta <= 1e-9:
        return 1e6
    if alpha <= 1.0:
        return score(zm_differential_cumulative(model.dmax, alpha, delta).values)
    return score(model.masses(alpha, delta))


def fit_zipf_mandelbrot(
    observed: PooledDistribution,
    dmax: int,
    *,
    alpha_grid: Sequence[float] | None = None,
    delta_grid: Sequence[float] | None = None,
    use_sigma_weights: bool = False,
    refine: bool = True,
) -> ZMFitResult:
    """Fit ``(α, δ)`` to a pooled differential cumulative observation.

    Parameters
    ----------
    observed:
        Pooled observation ``D(d_i)`` (possibly averaged over windows).
    dmax:
        Largest degree of the model support; normally the largest observed
        degree of the data that produced *observed*.
    alpha_grid, delta_grid:
        Override the coarse scan grids.
    use_sigma_weights:
        Weight bins by ``1/σ²`` when the observation carries cross-window
        standard deviations (bins with zero σ get the median weight).
    refine:
        Run the Nelder–Mead refinement after the grid scan (default True).

    Returns
    -------
    ZMFitResult
    """
    dmax = check_positive_int(dmax, "dmax")
    alphas = np.asarray(_DEFAULT_ALPHA_GRID if alpha_grid is None else alpha_grid, dtype=np.float64)
    deltas = np.asarray(_DEFAULT_DELTA_GRID if delta_grid is None else delta_grid, dtype=np.float64)
    if alphas.size == 0 or deltas.size == 0:
        raise ValueError("alpha_grid and delta_grid must be non-empty")

    weights = None
    if use_sigma_weights and observed.sigma is not None:
        sigma = observed.sigma
        with np.errstate(divide="ignore"):
            w = 1.0 / np.square(sigma)
        finite = np.isfinite(w)
        if np.any(finite):
            fill = float(np.median(w[finite]))
            w = np.where(finite, w, fill)
            weights = w

    n_informative = int(np.count_nonzero(observed.values > 0))
    # both model branches pool onto the log2 bins of 1..dmax
    model = _PooledModel(dmax)
    score = pooled_error_scorer(observed, model.edges, log_space=True, weights=weights)

    best = (np.inf, None, None)
    for alpha in alphas:
        for delta in deltas:
            err = _objective(np.array([alpha, delta]), score, model)
            if err < best[0]:
                best = (err, float(alpha), float(delta))
    best_err, best_alpha, best_delta = best
    if best_alpha is None:
        raise RuntimeError("grid scan failed to evaluate any admissible parameter pair")

    converged = False
    if refine:
        from scipy.optimize import minimize

        result = minimize(
            _objective,
            x0=np.array([best_alpha, best_delta]),
            args=(score, model),
            method="Nelder-Mead",
            options={"xatol": 1e-4, "fatol": 1e-8, "maxiter": 2000},
        )
        if result.fun <= best_err:
            best_err = float(result.fun)
            best_alpha, best_delta = float(result.x[0]), float(result.x[1])
            converged = bool(result.success)

    return ZMFitResult(
        alpha=best_alpha,
        delta=best_delta,
        dmax=dmax,
        error=best_err,
        n_bins=n_informative,
        converged=converged,
    )


def fit_zipf_mandelbrot_histogram(
    histogram: DegreeHistogram,
    **kwargs,
) -> ZMFitResult:
    """Convenience wrapper: pool a raw histogram and fit ``(α, δ)`` to it."""
    if histogram.total == 0:
        raise ValueError("cannot fit an empty histogram")
    pooled = pool_differential_cumulative(histogram)
    return fit_zipf_mandelbrot(pooled, dmax=histogram.dmax, **kwargs)
