"""Statistical goodness-of-fit and model-selection tests.

The paper selects the modified Zipf–Mandelbrot model over a single-exponent
power law by visual fit quality; this module adds the formal statistical
machinery a downstream user would want when making that call on their own
data:

* :func:`power_law_plausibility` — the Clauset–Shalizi–Newman semi-parametric
  bootstrap: fit the power law, measure its KS distance, and compare against
  the KS distances of synthetic data sets drawn from the fitted model.  A
  small p-value means the pure power law is *not* a plausible generator —
  which is exactly what trunk-style traffic (with its d = 1 excess) produces.
* :func:`likelihood_ratio_test` — Vuong-style normalised log-likelihood-ratio
  test between two fitted candidate distributions (e.g. ZM versus power law),
  returning the ratio, its standard error, and the two-sided p-value.
* :func:`bootstrap_parameter_ci` — nonparametric bootstrap confidence
  intervals for any fit function returning a scalar parameter (used to put
  error bars on the α and δ of Figure 3 panels).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro._util.rng import RNGLike, as_generator
from repro._util.validation import check_positive_int
from repro.analysis.histogram import DegreeHistogram, degree_histogram
from repro.core.distributions import DiscreteDegreeDistribution
from repro.core.powerlaw_fit import fit_discrete_mle

__all__ = [
    "PlausibilityResult",
    "LikelihoodRatioResult",
    "power_law_plausibility",
    "likelihood_ratio_test",
    "bootstrap_parameter_ci",
]


@dataclass(frozen=True)
class PlausibilityResult:
    """Result of the CSN bootstrap plausibility test."""

    alpha: float
    d_min: int
    observed_ks: float
    p_value: float
    n_bootstrap: int

    def plausible(self, threshold: float = 0.1) -> bool:
        """CSN convention: the power law is ruled out when ``p < 0.1``."""
        return self.p_value >= threshold


@dataclass(frozen=True)
class LikelihoodRatioResult:
    """Result of a Vuong-style normalised likelihood-ratio test."""

    log_likelihood_ratio: float
    normalised_ratio: float
    p_value: float
    favours: str

    def significant(self, level: float = 0.05) -> bool:
        """Whether the preference is statistically significant at *level*."""
        return self.p_value < level


def power_law_plausibility(
    histogram: DegreeHistogram,
    *,
    d_min: int = 1,
    n_bootstrap: int = 100,
    rng: RNGLike = None,
) -> PlausibilityResult:
    """Semi-parametric bootstrap test of the pure power-law hypothesis.

    Follows Clauset–Shalizi–Newman (2009): fit the discrete MLE to the tail
    ``d >= d_min``, record its KS distance, then repeatedly (i) draw a
    synthetic sample of the same size from the fitted model, (ii) refit, and
    (iii) record the synthetic KS distance.  The p-value is the fraction of
    synthetic data sets whose KS distance exceeds the observed one.
    """
    if histogram.total == 0:
        raise ValueError("cannot test an empty histogram")
    n_bootstrap = check_positive_int(n_bootstrap, "n_bootstrap")
    gen = as_generator(rng)

    fit = fit_discrete_mle(histogram, d_min=d_min)
    tail_mask = histogram.degrees >= d_min
    n_tail = int(histogram.counts[tail_mask].sum())
    dmax = histogram.dmax
    model = fit.model(dmax)
    observed_ks = fit.ks

    exceed = 0
    for _ in range(n_bootstrap):
        synthetic_degrees = model.sample(n_tail, rng=gen)
        synthetic_degrees = synthetic_degrees[synthetic_degrees >= d_min]
        if synthetic_degrees.size == 0:
            continue
        synthetic = degree_histogram(synthetic_degrees)
        try:
            synthetic_fit = fit_discrete_mle(synthetic, d_min=d_min)
        except ValueError:
            continue
        if synthetic_fit.ks >= observed_ks:
            exceed += 1
    p_value = exceed / n_bootstrap
    return PlausibilityResult(
        alpha=fit.alpha,
        d_min=d_min,
        observed_ks=observed_ks,
        p_value=p_value,
        n_bootstrap=n_bootstrap,
    )


def likelihood_ratio_test(
    histogram: DegreeHistogram,
    model_a: DiscreteDegreeDistribution,
    model_b: DiscreteDegreeDistribution,
    *,
    name_a: str = "model_a",
    name_b: str = "model_b",
) -> LikelihoodRatioResult:
    """Vuong-style normalised log-likelihood-ratio test between two models.

    Positive ratios favour *model_a*.  The per-observation log-likelihood
    differences are treated as i.i.d.; the normalised statistic
    ``R / (σ·√n)`` is compared against a standard normal to obtain the
    two-sided p-value (Clauset–Shalizi–Newman, Appendix C).
    """
    if histogram.total == 0:
        raise ValueError("cannot compare models on an empty histogram")
    degrees = histogram.degrees
    counts = histogram.counts.astype(np.float64)
    pa = np.asarray(model_a.pmf(degrees), dtype=np.float64)
    pb = np.asarray(model_b.pmf(degrees), dtype=np.float64)
    if np.any(pa <= 0) or np.any(pb <= 0):
        raise ValueError("both models must give positive probability to every observed degree")
    per_degree = np.log(pa) - np.log(pb)
    n = counts.sum()
    ratio = float(np.dot(counts, per_degree))
    mean = ratio / n
    variance = float(np.dot(counts, (per_degree - mean) ** 2)) / n
    if variance <= 0:
        # the models are point-wise identical on the observed support
        return LikelihoodRatioResult(ratio, 0.0, 1.0, "inconclusive")
    from scipy.stats import norm

    normalised = ratio / math.sqrt(n * variance)
    p_value = 2.0 * float(norm.sf(abs(normalised)))
    if p_value >= 0.05:
        favours = "inconclusive"
    else:
        favours = name_a if ratio > 0 else name_b
    return LikelihoodRatioResult(
        log_likelihood_ratio=ratio,
        normalised_ratio=normalised,
        p_value=p_value,
        favours=favours,
    )


def bootstrap_parameter_ci(
    histogram: DegreeHistogram,
    fit_function: Callable[[DegreeHistogram], float],
    *,
    n_bootstrap: int = 200,
    confidence: float = 0.95,
    rng: RNGLike = None,
) -> tuple[float, float, float]:
    """Nonparametric bootstrap confidence interval for a scalar fit parameter.

    Parameters
    ----------
    histogram:
        The observed degree histogram.
    fit_function:
        Callable mapping a histogram to the scalar of interest (e.g.
        ``lambda h: fit_zipf_mandelbrot_histogram(h).alpha``).
    n_bootstrap:
        Number of resamples.
    confidence:
        Central coverage of the returned interval.

    Returns
    -------
    (float, float, float)
        The point estimate on the original data and the lower/upper bounds of
        the percentile bootstrap interval.
    """
    if histogram.total == 0:
        raise ValueError("cannot bootstrap an empty histogram")
    if not (0.0 < confidence < 1.0):
        raise ValueError("confidence must be in (0, 1)")
    n_bootstrap = check_positive_int(n_bootstrap, "n_bootstrap")
    gen = as_generator(rng)

    point = float(fit_function(histogram))
    probabilities = histogram.counts / histogram.total
    estimates = np.empty(n_bootstrap, dtype=np.float64)
    for b in range(n_bootstrap):
        resampled_counts = gen.multinomial(histogram.total, probabilities)
        keep = resampled_counts > 0
        resampled = DegreeHistogram(degrees=histogram.degrees[keep], counts=resampled_counts[keep])
        estimates[b] = float(fit_function(resampled))
    tail = (1.0 - confidence) / 2.0
    lower, upper = np.quantile(estimates, [tail, 1.0 - tail])
    return point, float(lower), float(upper)
