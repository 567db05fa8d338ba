"""Fitting the reduced PALU parameters to an observed degree distribution.

Section IV-B of the paper gives a three-step recipe for recovering the
reduced parameters ``(c, α, u, Λ, l)`` from a measured degree distribution
``f(d)`` (the fraction of observed nodes having degree ``d``):

(a) **Tail fit** — for ``d >= 10`` the distribution is essentially
    ``c·d^{-α}`` (Eq. 4).  The default estimator is the discrete tail MLE
    (robust to the sparse, count-1 tail of sampled data); ``c`` then follows
    from matching the total tail mass.  The paper's log-log linear regression
    is available as ``tail_estimator="regression"`` and its R² is always
    reported as a diagnostic.

(b) **Unattached fit** — for small ``d`` the residual
    ``f(d) − c·d^{-α}`` is dominated by the Poisson-star term.  The paper
    recommends the *moment-ratio* estimator: the ratio of the first to the
    zeroth residual moment equals an analytic function of the Poisson mean,
    which is inverted numerically; ``u`` then follows from the zeroth
    moment.  A point-wise log-regression variant is also provided (it is the
    higher-variance alternative the paper argues against; the ablation
    benchmark quantifies that claim).

(c) **Leaf fit** — ``l`` is solved exactly from the degree-1 equation
    ``f(1) ≈ c + l + u`` (Eq. 2).

:func:`fit_palu` runs the full recipe and returns a
:class:`PALUFitResult`, which can be converted back to underlying
``(C, L, U, λ)`` proportions for a known window parameter ``p``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro._util.validation import check_fraction, check_positive_int
from repro.analysis.histogram import DegreeHistogram
from repro.analysis.moments import poisson_moment_rhs, residual_moment_ratio, residual_moment_sums
from repro.core.distributions import PALUDegreeDistribution
from repro.core.estimators import estimate_alpha_loglog
from repro.core.palu_model import PALUParameters
from repro.core.powerlaw_fit import fit_discrete_mle
from repro.core.zeta import riemann_zeta

__all__ = ["PALUFitResult", "fit_palu", "solve_lambda_from_ratio"]


@dataclass(frozen=True)
class PALUFitResult:
    """Fitted reduced PALU parameters and diagnostics.

    Attributes
    ----------
    c, l, u:
        Reduced weights of the core, leaf, and unattached pieces.
    alpha:
        Core power-law exponent.
    poisson_mean:
        Estimated Poisson mean ``m = λ·p`` of the observed star sizes.
    Lambda:
        The paper's clustering parameter ``Λ = e·m``.
    tail_r_squared:
        R² of the tail regression of step (a).
    residual_mass:
        Total residual probability attributed to the unattached piece.
    method:
        Which Λ estimator produced the unattached parameters
        (``"moment"`` or ``"pointwise"``).
    dmax:
        Largest observed degree.
    """

    c: float
    l: float
    u: float
    alpha: float
    poisson_mean: float
    Lambda: float
    tail_r_squared: float
    residual_mass: float
    method: str
    dmax: int

    def distribution(self, dmax: int | None = None) -> PALUDegreeDistribution:
        """The fitted PALU degree distribution on ``1..dmax``.

        Uses the exact-Poisson form of the unattached term so the returned
        distribution is consistent with the moment equations the fit solved
        (the Stirling form ``(Λ/d)^d`` overstates the unattached mass by a
        factor ``≈ √(2πd)``).
        """
        return PALUDegreeDistribution(
            c=self.c,
            l=self.l,
            u=self.u,
            alpha=self.alpha,
            Lambda=self.Lambda,
            dmax=int(dmax or self.dmax),
            form="poisson",
        )

    def to_underlying(self, p: float) -> PALUParameters:
        """Recover underlying proportions ``(C, L, U, λ)`` for window parameter *p*.

        Inverts the reduced-parameter map of Section IV-B using the
        normalisation constraint ``C + L + U(1 + λ − e^{-λ}) = 1`` to fix the
        visible fraction ``V``.
        """
        p = check_fraction(p, "p", inclusive=False)
        lam = self.poisson_mean / p
        if lam > 20.0:
            raise ValueError(
                f"implied λ = {lam:.3f} exceeds the model range [0, 20]; "
                "the supplied p is likely too small for this fit"
            )
        zeta_a = riemann_zeta(self.alpha)
        # per-V class masses in the underlying network
        core_over_v = self.c * zeta_a / p**self.alpha
        leaf_over_v = self.l / p
        centre_over_v = self.u * math.exp(self.poisson_mean)
        star_factor = 1.0 + lam - math.exp(-lam)
        total_over_v = core_over_v + leaf_over_v + centre_over_v * star_factor
        if total_over_v <= 0:
            raise ValueError("degenerate fit: zero total underlying mass")
        V = 1.0 / total_over_v
        return PALUParameters(
            core=core_over_v * V,
            leaves=leaf_over_v * V,
            unattached=centre_over_v * V,
            lam=lam,
            alpha=self.alpha,
            strict=False,
        )

    def as_row(self) -> dict:
        """Dictionary form used by the experiment tables."""
        return {
            "c": round(self.c, 5),
            "l": round(self.l, 5),
            "u": round(self.u, 5),
            "alpha": round(self.alpha, 3),
            "Lambda": round(self.Lambda, 3),
            "m": round(self.poisson_mean, 3),
            "tail_R2": round(self.tail_r_squared, 4),
            "method": self.method,
        }


def solve_lambda_from_ratio(ratio: float, *, m_max: float = 200.0) -> float:
    """Invert the moment-ratio equation ``g(m) = ratio`` for the Poisson mean ``m``.

    ``g`` is :func:`repro.analysis.moments.poisson_moment_rhs`, which is
    strictly increasing from 2 (at ``m = 0``); ratios at or below 2 therefore
    map to ``m = 0`` (no detectable unattached clustering), and ratios beyond
    ``g(m_max)`` are clamped to ``m_max``.  Very small positive excesses over
    2 are inverted through the Taylor expansion ``g(m) ≈ 2 + m/3`` to avoid
    bracketing problems near the root.
    """
    if not np.isfinite(ratio):
        return 0.0
    if ratio <= 2.0:
        return 0.0
    lower = 1e-6
    if ratio <= poisson_moment_rhs(lower):
        return max(0.0, 3.0 * (ratio - 2.0))
    upper = poisson_moment_rhs(m_max)
    if ratio >= upper:
        return m_max
    from scipy.optimize import brentq

    return float(brentq(lambda m: poisson_moment_rhs(m) - ratio, lower, m_max))


#: Residual probability mass below which the unattached component is treated
#: as absent (protects the Λ estimator from pure rounding/sampling noise).
_MIN_RESIDUAL_MASS = 1e-9


def _fit_unattached_moment(
    fractions: np.ndarray, c: float, alpha: float, d_min: int, d_max: int
) -> tuple[float, float, float]:
    """Moment-based step (b): returns ``(u, m, residual_mass)``."""
    ratio = residual_moment_ratio(fractions, c, alpha, d_min=d_min, d_max=d_max)
    weighted, plain = residual_moment_sums(fractions, c, alpha, d_min=d_min, d_max=d_max)
    if not np.isfinite(ratio) or plain <= _MIN_RESIDUAL_MASS:
        return 0.0, 0.0, max(plain, 0.0)
    m = solve_lambda_from_ratio(ratio)
    if m <= 0:
        return 0.0, 0.0, plain
    # Σ_{d>=2} u·m^d/d! = u·(e^m − 1 − m)  =>  u = plain / (e^m − 1 − m)
    denom = math.expm1(m) - m
    u = plain / denom if denom > 0 else 0.0
    if u <= _MIN_RESIDUAL_MASS:
        return 0.0, 0.0, plain
    return u, m, plain


def _fit_unattached_pointwise(
    fractions: np.ndarray, c: float, alpha: float, d_min: int, d_fit_max: int
) -> tuple[float, float, float]:
    """Point-wise step (b): log-regression of the residuals against the Poisson form.

    Writes ``log resid(d) + log d! ≈ log u + d·log m`` and solves the linear
    least-squares problem in ``(log u, log m)`` over ``d_min <= d <= d_fit_max``.
    """
    from scipy.special import gammaln

    f = np.asarray(fractions, dtype=np.float64)
    d = np.arange(1, f.size + 1, dtype=np.float64)
    resid = f - c * d ** (-alpha)
    sel = (d >= d_min) & (d <= d_fit_max) & (resid > 0)
    if np.count_nonzero(sel) < 2:
        return 0.0, 0.0, float(np.clip(resid[d >= d_min], 0, None).sum())
    y = np.log(resid[sel]) + gammaln(d[sel] + 1.0)
    x = d[sel]
    slope, intercept = np.polyfit(x, y, 1)
    m = float(np.exp(slope))
    u = float(np.exp(intercept))
    residual_mass = float(np.clip(resid[d >= d_min], 0, None).sum())
    return u, m, residual_mass


def _tail_prefactor_from_mass(
    histogram: DegreeHistogram, alpha: float, d_min: int
) -> float:
    """Solve ``c`` so that ``c·Σ_{d>=d_min} d^{-α}`` matches the observed tail mass.

    Matching the total tail probability (rather than regressing individual
    log-fractions) is unbiased even when most tail degrees have zero or one
    observation, which is the typical situation for heavy-tailed samples.
    """
    mask = histogram.degrees >= d_min
    tail_mass = float(histogram.counts[mask].sum()) / histogram.total
    d = np.arange(d_min, histogram.dmax + 1, dtype=np.float64)
    denom = float(np.sum(d ** (-alpha)))
    if denom <= 0:
        raise ValueError("degenerate tail: cannot normalise the power-law prefactor")
    return tail_mass / denom


def fit_palu(
    histogram: DegreeHistogram,
    *,
    tail_d_min: int = 10,
    unattached_d_min: int = 2,
    unattached_d_max: int = 20,
    method: str = "moment",
    tail_estimator: str = "mle",
) -> PALUFitResult:
    """Fit the reduced PALU parameters to a degree histogram.

    Parameters
    ----------
    histogram:
        Empirical degree histogram of one observed network / window.
    tail_d_min:
        Smallest degree used for the tail fit of step (a); the paper uses 10
        (Eq. 4).  Automatically relaxed down to the largest value that still
        leaves at least three distinct tail degrees.
    unattached_d_min, unattached_d_max:
        Degree range used for the unattached fit of step (b).
    method:
        ``"moment"`` (default, the paper's recommended low-variance
        estimator) or ``"pointwise"`` (log-regression on individual
        residuals).
    tail_estimator:
        ``"mle"`` (default) fits the tail exponent by discrete maximum
        likelihood and the prefactor by tail-mass matching — robust to the
        sparse count-0/1 tail of sampled data.  ``"regression"`` follows the
        paper's literal recipe (log-log least squares on the point-wise
        fractions).

    Returns
    -------
    PALUFitResult
    """
    if histogram.total == 0:
        raise ValueError("cannot fit an empty histogram")
    if method not in ("moment", "pointwise"):
        raise ValueError(f"unknown method {method!r}; expected 'moment' or 'pointwise'")
    if tail_estimator not in ("mle", "regression"):
        raise ValueError(
            f"unknown tail_estimator {tail_estimator!r}; expected 'mle' or 'regression'"
        )
    tail_d_min = check_positive_int(tail_d_min, "tail_d_min")
    dmax = histogram.dmax
    fractions = histogram.dense_probability()

    # --- step (a): tail fit of c and alpha ----------------------------------
    effective_tail_min = tail_d_min
    while effective_tail_min > 2:
        n_tail = int(np.count_nonzero(histogram.degrees >= effective_tail_min))
        if n_tail >= 3:
            break
        effective_tail_min //= 2
    tail = estimate_alpha_loglog(histogram, d_min=effective_tail_min)
    if tail_estimator == "mle":
        alpha = fit_discrete_mle(histogram, d_min=effective_tail_min).alpha
    else:
        alpha = tail.alpha
    c = _tail_prefactor_from_mass(histogram, alpha, effective_tail_min)

    # --- step (b): unattached fit of u and the Poisson mean ------------------
    if method == "moment":
        u, m, residual_mass = _fit_unattached_moment(
            fractions, c, alpha, unattached_d_min, unattached_d_max
        )
    else:
        u, m, residual_mass = _fit_unattached_pointwise(
            fractions, c, alpha, unattached_d_min, unattached_d_max
        )

    # --- step (c): solve for l from the degree-1 equation --------------------
    f1 = float(fractions[0]) if fractions.size else 0.0
    l = max(f1 - c - u, 0.0)

    return PALUFitResult(
        c=c,
        l=l,
        u=u,
        alpha=alpha,
        poisson_mean=m,
        Lambda=math.e * m,
        tail_r_squared=tail.r_squared,
        residual_mass=residual_mass,
        method=method,
        dmax=dmax,
    )
