"""Single-parameter power-law fitting (the classical baseline).

Prior Internet-topology studies characterised degree data with a single
power-law exponent ``p(d) ∝ d^{-α}`` fitted to the large-``d`` behaviour
(Section II of the paper).  This module implements that baseline from
scratch so it can be compared against the modified Zipf–Mandelbrot and PALU
models:

* :func:`fit_discrete_mle` — the discrete maximum-likelihood estimator of
  Clauset–Shalizi–Newman (2009): maximise the zeta-normalised likelihood for
  degrees ``d >= d_min``.
* :func:`select_dmin` — choose ``d_min`` by minimising the Kolmogorov–
  Smirnov distance between the empirical tail and the fitted model.
* :func:`fit_power_law` — the one-stop baseline: optional ``d_min``
  selection followed by the MLE, returning a result object aligned with
  :class:`repro.core.zm_fit.ZMFitResult`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._util.validation import check_positive_int
from repro.analysis.histogram import DegreeHistogram
from repro.core.distributions import DiscretePowerLaw
from repro.core.zeta import riemann_zeta, zeta_prime

__all__ = ["PowerLawFitResult", "fit_discrete_mle", "select_dmin", "fit_power_law"]


@dataclass(frozen=True)
class PowerLawFitResult:
    """Result of a single-parameter power-law fit.

    Attributes
    ----------
    alpha:
        Fitted exponent.
    d_min:
        Smallest degree included in the fit (the tail cutoff).
    ks:
        Kolmogorov–Smirnov distance between the fitted tail model and the
        empirical tail.
    n_tail:
        Number of observations with ``d >= d_min``.
    log_likelihood:
        Maximised log-likelihood of the tail observations.
    """

    alpha: float
    d_min: int
    ks: float
    n_tail: int
    log_likelihood: float

    def model(self, dmax: int) -> DiscretePowerLaw:
        """The fitted model extended over the support ``1..dmax``."""
        return DiscretePowerLaw(self.alpha, dmax)

    def as_row(self) -> dict:
        """Dictionary form used by the experiment tables."""
        return {
            "alpha": round(self.alpha, 3),
            "d_min": self.d_min,
            "ks": round(self.ks, 4),
            "n_tail": self.n_tail,
            "loglik": round(self.log_likelihood, 2),
        }


def _tail_histogram(histogram: DegreeHistogram, d_min: int) -> tuple[np.ndarray, np.ndarray]:
    mask = histogram.degrees >= d_min
    return histogram.degrees[mask], histogram.counts[mask]


def _tail_log_likelihood(alpha: float, n: float, log_degree_sum: float, d_min: int, zeta) -> float:
    """Log-likelihood of the zeta-normalised tail model ``d^{-α}/ζ(α, d_min)``.

    *n* and *log_degree_sum* are the tail's ``Σ n(d)`` and ``Σ n(d)·log d``,
    fixed per ``d_min``; *zeta* is :func:`scipy.special.zeta`, and
    ``d_min >= 1`` keeps its offset positive.
    """
    if alpha <= 1.0:
        return -np.inf
    return float(-alpha * log_degree_sum - n * np.log(zeta(alpha, d_min)))


def fit_discrete_mle(
    histogram: DegreeHistogram,
    *,
    d_min: int = 1,
    alpha_bounds: tuple[float, float] = (1.01, 6.0),
) -> PowerLawFitResult:
    """Discrete power-law MLE for the tail ``d >= d_min``.

    Maximises ``Σ_d n(d)·[−α log d − log ζ(α, d_min)]`` over *alpha_bounds*
    with a bounded scalar optimiser (the likelihood is unimodal in ``α``).
    """
    from scipy.optimize import minimize_scalar
    from scipy.special import zeta

    d_min = check_positive_int(d_min, "d_min")
    degrees, counts = _tail_histogram(histogram, d_min)
    if degrees.size == 0 or counts.sum() == 0:
        raise ValueError(f"no observations with degree >= d_min={d_min}")

    tail_counts = counts.astype(np.float64)
    n = tail_counts.sum()
    log_degree_sum = np.dot(tail_counts, np.log(degrees.astype(np.float64)))
    result = minimize_scalar(
        lambda a: -_tail_log_likelihood(a, n, log_degree_sum, d_min, zeta),
        bounds=alpha_bounds,
        method="bounded",
        options={"xatol": 1e-6},
    )
    alpha = float(result.x)
    ll = _tail_log_likelihood(alpha, n, log_degree_sum, d_min, zeta)
    ks = _tail_ks(alpha, degrees, counts, d_min)
    return PowerLawFitResult(
        alpha=alpha,
        d_min=d_min,
        ks=ks,
        n_tail=int(counts.sum()),
        log_likelihood=ll,
    )


def _tail_ks(alpha: float, degrees: np.ndarray, counts: np.ndarray, d_min: int) -> float:
    """KS distance between the empirical tail cdf and the fitted tail model.

    Both cdfs run over ``d_min..dmax``.  The empirical one is a step function
    that rises only at an observed degree ``o_j``, and the model one rises
    at every degree, so their largest gap sits at some ``o_j`` or just
    before it, at ``o_j - 1``, where the empirical cdf still holds its
    previous value.  Only those points are evaluated.  For ``α > 1`` the
    model cdf at ``k`` is
    ``(ζ(α, d_min) − ζ(α, k+1)) / (ζ(α, d_min) − ζ(α, dmax+1))``, so the
    cost does not grow with ``dmax``; for ``α <= 1`` the series diverge and
    the support is summed directly.

    For ``α > 1`` most of those zeta evaluations cannot matter.  In degree
    order, the points' empirical and model cdfs are both non-decreasing, so
    between two evaluated points ``a < b`` every gap is at most
    ``max(F_e(b⁻) − F_m(a), F_m(b) − F_e(a⁺))``, with ``a⁺``/``b⁻`` the
    points next to ``a``/``b`` inside.  So the model is evaluated at every
    8th point first, and then only inside the stretches whose bound, plus
    a margin for the model cdf's rounding, exceeds the largest gap seen.
    The points skipped cannot raise the maximum, and every point evaluated
    keeps the formula above, so the statistic is bit-identical to
    evaluating them all.
    """
    emp = np.cumsum(counts) / counts.sum()
    # o_0 - 1, o_0, o_1 - 1, o_1, ...: both cdfs non-decreasing along them
    points = np.column_stack((degrees - 1, degrees)).ravel()
    emp_points = np.column_stack((np.concatenate(([0.0], emp[:-1])), emp)).ravel()
    if alpha <= 1.0:
        cdf = np.cumsum(np.arange(d_min, degrees[-1] + 1, dtype=np.float64) ** -alpha)
        model = np.concatenate(([0.0], cdf))[points - (d_min - 1)] / cdf[-1]
        return float(np.max(np.abs(emp_points - model)))
    from scipy.special import zeta

    head = zeta(alpha, d_min)
    norm = head - zeta(alpha, degrees[-1] + 1.0)
    # the model cdf divides a difference of zetas below ``head`` by ``norm``;
    # this is many times its rounding error
    margin = 1e-9 * head / norm
    coarse = np.append(np.arange(0, points.size - 1, 8), points.size - 1)
    model = (head - zeta(alpha, points[coarse] + 1.0)) / norm
    ks = np.max(np.abs(emp_points[coarse] - model))
    lo, hi = coarse[:-1], coarse[1:]
    bound = np.maximum(emp_points[hi - 1] - model[:-1], model[1:] - emp_points[lo + 1])
    # one flag per point 0..n-2, from the stretch [lo, hi) it lies in
    inside = np.repeat(bound + margin > ks, hi - lo)
    inside[lo] = False
    rest = np.flatnonzero(inside)
    if rest.size:
        model = (head - zeta(alpha, points[rest] + 1.0)) / norm
        # np.maximum propagates a NaN gap, as one np.max over every point does
        ks = np.maximum(ks, np.max(np.abs(emp_points[rest] - model)))
    return float(ks)


def select_dmin(
    histogram: DegreeHistogram,
    *,
    candidates: np.ndarray | None = None,
    min_tail_size: int = 25,
) -> int:
    """Choose the tail cutoff ``d_min`` by minimising the KS distance.

    Follows the Clauset–Shalizi–Newman recipe: fit the MLE for every
    candidate cutoff and keep the one whose fitted model is closest (in KS
    distance) to the empirical tail, subject to the tail retaining at least
    *min_tail_size* observations.
    """
    if histogram.total == 0:
        raise ValueError("cannot select d_min for an empty histogram")
    if candidates is None:
        # DegreeHistogram keeps its degrees sorted and unique
        candidates = histogram.degrees
    best_dmin, best_ks = int(candidates[0]), np.inf
    for d_min in candidates:
        d_min = int(d_min)
        _, counts = _tail_histogram(histogram, d_min)
        if counts.sum() < min_tail_size:
            break
        try:
            fit = fit_discrete_mle(histogram, d_min=d_min)
        except ValueError:
            continue
        if fit.ks < best_ks:
            best_ks, best_dmin = fit.ks, d_min
    return best_dmin


def fit_power_law(
    histogram: DegreeHistogram,
    *,
    select_cutoff: bool = False,
    d_min: int = 1,
) -> PowerLawFitResult:
    """Baseline single-parameter power-law fit.

    Parameters
    ----------
    histogram:
        Empirical degree histogram.
    select_cutoff:
        When True, choose ``d_min`` by KS minimisation (CSN recipe) before
        fitting; otherwise use the supplied *d_min* (default 1, i.e. fit the
        whole distribution as a pure power law — the webcrawl-era baseline).
    d_min:
        Tail cutoff when *select_cutoff* is False.
    """
    if select_cutoff:
        d_min = select_dmin(histogram)
    return fit_discrete_mle(histogram, d_min=d_min)


def mle_score_equation(alpha: float, mean_log_degree: float) -> float:
    """Score equation ``ζ'(α)/ζ(α) + mean(log d) = 0`` of the zeta MLE.

    Exposed for the tests, which verify that the numeric optimiser's root
    agrees with this analytic stationarity condition when ``d_min = 1``.
    """
    return zeta_prime(alpha) / riemann_zeta(alpha) + mean_log_degree
