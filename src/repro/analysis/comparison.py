"""Goodness-of-fit measures and model comparison.

The paper selects Zipf–Mandelbrot parameters by "minimizing the differences
between the observed differential cumulative distributions" (Section II-B).
This module provides the error measures used for that minimisation and for
the model-comparison experiments:

* :func:`pooled_relative_error` — the log-space error on pooled bins used as
  the fitting objective (robust over the many decades the data span), and
  :func:`pooled_error_scorer`, the same error with the observation aligned
  once for a fit that scores many models,
* :func:`ks_statistic` — Kolmogorov–Smirnov distance between an empirical
  histogram and a model distribution,
* :func:`chi_square_statistic` — Pearson χ² on pooled bins,
* :func:`log_likelihood` — multinomial log-likelihood of a model pmf, and
* :func:`compare_models` — a one-stop comparison that evaluates several
  candidate models against one observation and ranks them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

import numpy as np

from repro.analysis.histogram import DegreeHistogram
from repro.analysis.pooling import PooledDistribution, bin_alignment, pool_probability_vector

if TYPE_CHECKING:  # pragma: no cover - import avoided at runtime to keep analysis/core acyclic
    from repro.core.distributions import DiscreteDegreeDistribution

__all__ = [
    "pooled_relative_error",
    "pooled_error_scorer",
    "ks_statistic",
    "chi_square_statistic",
    "log_likelihood",
    "FitComparison",
    "compare_models",
]

#: Probability floor used when taking logarithms of pooled bins.
_LOG_FLOOR = 1e-300


def pooled_relative_error(
    observed: PooledDistribution,
    model: PooledDistribution,
    *,
    log_space: bool = True,
    weights: np.ndarray | None = None,
) -> float:
    """Mean squared error between two pooled distributions.

    Parameters
    ----------
    observed, model:
        Pooled differential cumulative distributions.  The model is aligned
        onto the observation's bins first; bins where the observation is
        zero are ignored (they carry no information about the fit).
    log_space:
        Compare ``log10`` of the bin probabilities (default), matching how
        the paper's log-log plots weight errors evenly across decades.
    weights:
        Optional per-bin weights (e.g. inverse variance from ``σ(d_i)``).

    Returns
    -------
    float
        Mean (weighted) squared error over the informative bins.
    """
    score = pooled_error_scorer(observed, model.bin_edges, log_space=log_space, weights=weights)
    return score(model.values)


def pooled_error_scorer(
    observed: PooledDistribution,
    model_edges: np.ndarray,
    *,
    log_space: bool = True,
    weights: np.ndarray | None = None,
) -> Callable[[np.ndarray], float]:
    """:func:`pooled_relative_error` against models pooled on *model_edges*.

    The observation is aligned, masked and, in log space, transformed once;
    the returned function takes a model's pooled values on *model_edges* and
    returns exactly what :func:`pooled_relative_error` returns for it.  A fit
    that scores many models on the same bins builds it once.
    """
    obs = observed.values
    mask = obs > 0
    if not np.any(mask):
        return lambda values: 0.0
    gather = bin_alignment(model_edges, observed.bin_edges)[mask]
    target = np.log10(np.maximum(obs[mask], _LOG_FLOOR)) if log_space else obs[mask]
    w = None
    if weights is not None:
        w_full = np.asarray(weights, dtype=np.float64)
        if w_full.shape != obs.shape:
            raise ValueError("weights must have one entry per observed bin")
        w = w_full[mask]
        w_sum = np.sum(w)

    def score(values: np.ndarray) -> float:
        mod = np.append(values, 0.0)[gather]
        if log_space:
            err = target - np.log10(np.maximum(mod, _LOG_FLOOR))
        else:
            err = target - mod
        if w is None:
            return float(np.mean(err**2))
        return float(np.sum(w * err**2) / w_sum)

    return score


def ks_statistic(histogram: DegreeHistogram, model: DiscreteDegreeDistribution) -> float:
    """Kolmogorov–Smirnov distance between an empirical histogram and a model.

    Computed as ``max_d |P_emp(d) − P_model(d)|`` over the observed support.
    """
    if histogram.total == 0:
        return 0.0
    emp_cdf = histogram.cumulative()
    model_cdf = np.asarray(model.cdf(histogram.degrees), dtype=np.float64)
    return float(np.max(np.abs(emp_cdf - model_cdf)))


def chi_square_statistic(
    observed: PooledDistribution,
    model: PooledDistribution,
    *,
    min_probability: float = 1e-12,
) -> float:
    """Pearson χ² between pooled observation and pooled model.

    ``Σ_i (O_i − E_i)² / E_i`` over bins where the model probability exceeds
    *min_probability*, scaled by the number of underlying observations when
    available (``observed.total``), otherwise treated as probabilities.
    """
    aligned = model.align_to(observed.bin_edges)
    scale = observed.total if observed.total > 0 else 1.0
    obs = observed.values * scale
    exp = aligned.values * scale
    mask = aligned.values > min_probability
    if not np.any(mask):
        return float("inf")
    return float(np.sum((obs[mask] - exp[mask]) ** 2 / exp[mask]))


def log_likelihood(histogram: DegreeHistogram, model: DiscreteDegreeDistribution) -> float:
    """Multinomial log-likelihood of *histogram* under *model*.

    Degrees outside the model support (or with zero model probability)
    contribute ``-inf``, signalling an inadmissible model.
    """
    if histogram.total == 0:
        return 0.0
    pmf = np.asarray(model.pmf(histogram.degrees), dtype=np.float64)
    if np.any(pmf <= 0):
        return float("-inf")
    return float(np.dot(histogram.counts, np.log(pmf)))


@dataclass(frozen=True)
class FitComparison:
    """Result of comparing one model against one observation."""

    name: str
    n_parameters: int
    pooled_error: float
    ks: float
    chi_square: float
    log_lik: float
    aic: float

    def as_row(self) -> dict:
        """Dictionary form for tabular printing."""
        return {
            "model": self.name,
            "k": self.n_parameters,
            "pooled_log_mse": self.pooled_error,
            "ks": self.ks,
            "chi2": self.chi_square,
            "loglik": self.log_lik,
            "aic": self.aic,
        }


def compare_models(
    histogram: DegreeHistogram,
    observed_pooled: PooledDistribution,
    models: Mapping[str, DiscreteDegreeDistribution],
    *,
    n_parameters: Mapping[str, int] | None = None,
) -> Sequence[FitComparison]:
    """Evaluate several candidate models against one observation.

    Parameters
    ----------
    histogram:
        Empirical degree histogram (for KS and likelihood).
    observed_pooled:
        The pooled differential cumulative distribution of the same data
        (for the pooled log-MSE and χ² columns).
    models:
        Mapping from model name to a fitted distribution whose support covers
        ``histogram.dmax``.
    n_parameters:
        Number of free parameters per model, used for the AIC column
        (defaults to 1 for every model).

    Returns
    -------
    list of FitComparison
        Sorted by ascending pooled error (best fit first).
    """
    results = []
    for name, model in models.items():
        k = 1 if n_parameters is None else int(n_parameters.get(name, 1))
        model_pooled = pool_probability_vector(model.probabilities())
        err = pooled_relative_error(observed_pooled, model_pooled)
        ks = ks_statistic(histogram, model)
        chi2 = chi_square_statistic(observed_pooled, model_pooled)
        ll = log_likelihood(histogram, model)
        aic = 2.0 * k - 2.0 * ll if np.isfinite(ll) else float("inf")
        results.append(
            FitComparison(
                name=name,
                n_parameters=k,
                pooled_error=err,
                ks=ks,
                chi_square=chi2,
                log_lik=ll,
                aic=aic,
            )
        )
    results.sort(key=lambda r: r.pooled_error)
    return results
