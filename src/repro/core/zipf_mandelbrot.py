"""The modified Zipf–Mandelbrot model (Section II-B).

The paper fits streaming degree data with a two-parameter modification of the
Zipf–Mandelbrot law in which ``d`` is a *measured network quantity* rather
than a rank:

.. math::

    ρ(d; α, δ) = \\frac{1}{(d + δ)^{α}}, \\qquad
    p(d; α, δ) = \\frac{ρ(d; α, δ)}{\\sum_{d=1}^{d_{max}} ρ(d; α, δ)}

with cumulative probability ``P(d_i; α, δ)`` and differential cumulative
probability ``D(d_i; α, δ) = P(d_i) − P(d_{i−1})`` over the binary-log bins
``d_i = 2^i``.  The exponent ``α`` dominates the behaviour at large ``d``;
the offset ``δ`` dominates small ``d`` and in particular ``d = 1``.

This module provides those functions plus the analytic gradient
``∂_δ ρ = −α·ρ(d; α+1, δ)`` quoted in the paper, in a vectorised form used
by the fitting routines of :mod:`repro.core.zm_fit`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from repro._util.validation import check_positive, check_positive_int
from repro.analysis.pooling import PooledDistribution, pool_probability_vector
from repro.core.distributions import ZipfMandelbrotDistribution

__all__ = [
    "ZipfMandelbrotModel",
    "zm_unnormalized",
    "zm_unnormalized_gradient_delta",
    "zm_probability",
    "zm_cumulative",
    "zm_differential_cumulative",
]

ArrayLike = Union[float, np.ndarray]


def zm_unnormalized(d: ArrayLike, alpha: float, delta: float) -> ArrayLike:
    """Unnormalised model ``ρ(d; α, δ) = (d + δ)^{-α}``.

    Raises if any ``d + δ <= 0`` (the model is undefined there).
    """
    alpha = check_positive(alpha, "alpha")
    arr = np.asarray(d, dtype=np.float64)
    shifted = arr + float(delta)
    if np.any(shifted <= 0):
        raise ValueError("d + delta must be positive for every evaluated degree")
    out = shifted ** (-alpha)
    if np.isscalar(d) or np.ndim(d) == 0:
        return float(out)
    return out


def zm_unnormalized_gradient_delta(d: ArrayLike, alpha: float, delta: float) -> ArrayLike:
    """Gradient ``∂ρ/∂δ = −α·(d + δ)^{-(α+1)} = −α·ρ(d; α+1, δ)``."""
    alpha = check_positive(alpha, "alpha")
    return -alpha * zm_unnormalized(d, alpha + 1.0, delta)


def zm_probability(degrees: np.ndarray, alpha: float, delta: float) -> np.ndarray:
    """Normalised model probability ``p(d; α, δ)`` over the given *degrees*.

    The normalisation runs over exactly the supplied degree values, treated
    as the model support ``1..dmax`` when the degrees are the full dense
    range, or any other explicit support.
    """
    rho = np.asarray(zm_unnormalized(degrees, alpha, delta), dtype=np.float64)
    total = rho.sum()
    if total <= 0:
        raise ValueError("model has zero total mass on the requested support")
    return rho / total


def zm_cumulative(dmax: int, alpha: float, delta: float) -> np.ndarray:
    """Cumulative model probability ``P(d; α, δ)`` on the dense support ``1..dmax``."""
    dmax = check_positive_int(dmax, "dmax")
    degrees = np.arange(1, dmax + 1, dtype=np.float64)
    return np.cumsum(zm_probability(degrees, alpha, delta))


def zm_differential_cumulative(dmax: int, alpha: float, delta: float) -> PooledDistribution:
    """Differential cumulative model probability ``D(d_i; α, δ)`` on log2 bins.

    This is the curve drawn as the black model line in Figure 3: the model
    pmf on ``1..dmax`` pooled into the bins ``d_i = 2^i``.
    """
    dmax = check_positive_int(dmax, "dmax")
    degrees = np.arange(1, dmax + 1, dtype=np.float64)
    return pool_probability_vector(zm_probability(degrees, alpha, delta))


@dataclass(frozen=True)
class ZipfMandelbrotModel:
    """A fully specified modified Zipf–Mandelbrot model ``(α, δ, dmax)``.

    Thin convenience wrapper bundling the model parameters with the methods
    used throughout the experiments; the heavy lifting is delegated to the
    module-level functions and to
    :class:`repro.core.distributions.ZipfMandelbrotDistribution`.
    """

    alpha: float
    delta: float
    dmax: int

    def __post_init__(self) -> None:
        check_positive(self.alpha, "alpha")
        if 1.0 + self.delta <= 0.0:
            raise ValueError(f"delta must satisfy 1 + delta > 0, got {self.delta!r}")
        check_positive_int(self.dmax, "dmax")

    def distribution(self) -> ZipfMandelbrotDistribution:
        """The corresponding sampled-support distribution object."""
        return ZipfMandelbrotDistribution(self.alpha, self.delta, self.dmax)

    def probability(self) -> np.ndarray:
        """Dense pmf over ``1..dmax``."""
        degrees = np.arange(1, self.dmax + 1, dtype=np.float64)
        return zm_probability(degrees, self.alpha, self.delta)

    def cumulative(self) -> np.ndarray:
        """Dense cumulative probability over ``1..dmax``."""
        return zm_cumulative(self.dmax, self.alpha, self.delta)

    def differential_cumulative(self) -> PooledDistribution:
        """Model curve pooled on binary-log bins (Figure-3 black line)."""
        return zm_differential_cumulative(self.dmax, self.alpha, self.delta)

    def degree_one_probability(self) -> float:
        """Model probability at ``d = 1`` (the observation ZM must capture)."""
        return float(self.probability()[0])
