"""Riemann, Hurwitz, and truncated zeta functions.

The PALU model normalises its preferential-attachment core by the Riemann
zeta function ``ζ(α) = Σ_{n>=1} n^{-α}`` (Section IV of the paper), and the
modified Zipf–Mandelbrot model normalises by the truncated Hurwitz sum
``Σ_{d=1}^{dmax} (d + δ)^{-α}``.  Every convergent sum here comes from one
Hurwitz zeta, :func:`scipy.special.zeta`; only the truncated sums for
``α <= 1``, where the infinite series diverge, are summed directly.

All functions broadcast over NumPy arrays where that is meaningful.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro._util.validation import check_positive, check_positive_int

__all__ = [
    "riemann_zeta",
    "hurwitz_zeta",
    "truncated_zeta",
    "truncated_hurwitz",
    "zeta_prime",
    "generalized_harmonic",
]

ArrayLike = Union[float, np.ndarray]


def riemann_zeta(alpha: ArrayLike) -> ArrayLike:
    """Riemann zeta function ``ζ(α)`` for real ``α > 1``.

    Parameters
    ----------
    alpha:
        Exponent(s); every entry must satisfy ``α > 1``.

    Returns
    -------
    float or ndarray
        ``ζ(α)`` with the same shape as *alpha*.
    """
    return hurwitz_zeta(alpha, 1.0)


def hurwitz_zeta(alpha: ArrayLike, q: float) -> ArrayLike:
    """Hurwitz zeta ``ζ(α, q) = Σ_{n>=0} (n + q)^{-α}`` for ``α > 1`` and ``q > 0``.

    This is the natural normaliser of the modified Zipf–Mandelbrot model when
    the support is unbounded: ``Σ_{d>=1} (d + δ)^{-α} = ζ(α, 1 + δ)``.
    """
    from scipy.special import zeta

    q = check_positive(q, "q")
    arr = np.asarray(alpha, dtype=np.float64)
    if np.any(arr <= 1.0):
        raise ValueError("zeta requires alpha > 1 for convergence")
    out = zeta(arr, q)
    if arr.ndim == 0:
        return float(out)
    return out


def truncated_zeta(alpha: float, dmax: int) -> float:
    """Truncated zeta ``Σ_{d=1}^{dmax} d^{-α}``.

    Unlike :func:`riemann_zeta` this converges for every real ``α`` because
    the sum is finite; it is used when normalising model distributions over
    the observed support ``1..dmax``.
    """
    dmax = check_positive_int(dmax, "dmax")
    return truncated_hurwitz(alpha, 0.0, dmax)


def truncated_hurwitz(alpha: float, delta: float, dmax: int) -> float:
    """Truncated Zipf–Mandelbrot normaliser ``Σ_{d=1}^{dmax} (d + δ)^{-α}``.

    Requires ``1 + δ > 0`` so that every term is well defined.  For ``α > 1``
    this is ``ζ(α, 1 + δ) − ζ(α, dmax + 1 + δ)``, O(1) in ``dmax``; for
    ``α <= 1`` the Hurwitz series diverge, so the terms are summed directly.
    """
    dmax = check_positive_int(dmax, "dmax")
    alpha = float(alpha)
    delta = float(delta)
    if 1.0 + delta <= 0.0:
        raise ValueError(f"delta must satisfy 1 + delta > 0, got delta={delta!r}")
    if alpha <= 1.0:
        d = np.arange(1, dmax + 1, dtype=np.float64)
        return float(np.sum((d + delta) ** (-alpha)))
    return hurwitz_zeta(alpha, 1.0 + delta) - hurwitz_zeta(alpha, dmax + 1.0 + delta)


def generalized_harmonic(n: int, alpha: float) -> float:
    """Generalised harmonic number ``H_{n,α} = Σ_{d=1}^{n} d^{-α}``.

    Alias of :func:`truncated_zeta` with the conventional naming used in the
    power-law literature (e.g. the normaliser of the discrete power law in
    Clauset–Shalizi–Newman fitting).
    """
    return truncated_zeta(alpha, n)


def zeta_prime(alpha: float, *, eps: float = 1e-6) -> float:
    """Numerical derivative ``dζ/dα`` for ``α > 1``.

    Used by the maximum-likelihood power-law estimator whose score equation
    involves ``ζ'(α)/ζ(α)``.  A symmetric finite difference with a
    cancellation-aware step is accurate to ~1e-8 which is ample for the
    Newton iterations that consume it.
    """
    alpha = float(alpha)
    if alpha <= 1.0 + 2 * eps:
        raise ValueError("zeta_prime requires alpha > 1")
    upper = riemann_zeta(alpha + eps)
    lower = riemann_zeta(alpha - eps)
    return (upper - lower) / (2.0 * eps)
