"""Discrete degree distributions used throughout the PALU reproduction.

The paper manipulates several closely related distributions over positive
integer degrees ``d``:

* the discrete (zeta / truncated) **power law** ``p(d) ∝ d^{-α}`` that
  describes the preferential-attachment core,
* the modified **Zipf–Mandelbrot** law ``p(d) ∝ (d + δ)^{-α}`` that is fit to
  the streaming observations (Section II-B),
* the **Poisson** law that governs the non-central nodes of the unattached
  star components (Section V),
* the **geometric-tail** approximation ``(Λ/d)^d ≈ r^{1-d}`` that powers the
  Zipf–Mandelbrot connection (Section VI), and
* the full **PALU mixture** ``p(d) ∝ c·d^{-α} + u·(Λ/d)^d`` (Equation (3)).

Each class exposes the same small interface — ``pmf``, ``cdf``, ``sf``,
``mean``, ``sample`` and ``support`` — over an explicit, finite support
``1..dmax`` so that model curves, fitted curves, and empirical histograms can
be compared bin-for-bin.  Sampling uses vectorised inverse-CDF lookup which
is exact for these finite supports.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from repro._util.rng import RNGLike, as_generator
from repro._util.validation import (
    check_nonnegative,
    check_positive,
    check_positive_int,
)
from repro.core.zeta import truncated_hurwitz, truncated_zeta

__all__ = [
    "DiscreteDegreeDistribution",
    "DiscretePowerLaw",
    "ZipfMandelbrotDistribution",
    "PoissonDegreeDistribution",
    "GeometricTailDistribution",
    "PALUDegreeDistribution",
]

ArrayLike = Union[int, float, np.ndarray]


class DiscreteDegreeDistribution(abc.ABC):
    """Abstract base class for distributions over integer degrees ``1..dmax``.

    Subclasses implement :meth:`_unnormalized` returning the unnormalised
    weight of each degree; everything else (normalisation, cdf, sampling,
    moments) is provided here.
    """

    def __init__(self, dmax: int) -> None:
        self._dmax = check_positive_int(dmax, "dmax")
        self._weights_cache: np.ndarray | None = None
        self._cdf_cache: np.ndarray | None = None

    # -- subclass interface -------------------------------------------------

    @abc.abstractmethod
    def _unnormalized(self, degrees: np.ndarray) -> np.ndarray:
        """Return unnormalised weights for the integer *degrees* array."""

    # -- public interface ---------------------------------------------------

    @property
    def dmax(self) -> int:
        """Largest degree in the support."""
        return self._dmax

    def support(self) -> np.ndarray:
        """Integer array ``[1, 2, ..., dmax]``."""
        return np.arange(1, self._dmax + 1, dtype=np.int64)

    def _weights(self) -> np.ndarray:
        if self._weights_cache is None:
            w = np.asarray(self._unnormalized(self.support()), dtype=np.float64)
            if w.shape != (self._dmax,):
                raise RuntimeError("internal error: weight vector has wrong shape")
            if np.any(w < 0) or np.any(~np.isfinite(w)):
                raise ValueError("unnormalised weights must be finite and non-negative")
            total = w.sum()
            if total <= 0:
                raise ValueError("distribution has zero total mass on its support")
            self._weights_cache = w / total
        return self._weights_cache

    def _cdf_table(self) -> np.ndarray:
        if self._cdf_cache is None:
            self._cdf_cache = np.cumsum(self._weights())
            # guard against round-off leaving the last entry slightly below 1
            self._cdf_cache[-1] = 1.0
        return self._cdf_cache

    def pmf(self, d: ArrayLike) -> ArrayLike:
        """Probability mass at degree(s) *d* (zero outside ``1..dmax``)."""
        d_arr = np.atleast_1d(np.asarray(d, dtype=np.int64))
        out = np.zeros(d_arr.shape, dtype=np.float64)
        valid = (d_arr >= 1) & (d_arr <= self._dmax)
        out[valid] = self._weights()[d_arr[valid] - 1]
        if np.isscalar(d) or np.ndim(d) == 0:
            return float(out[0])
        return out.reshape(np.shape(d))

    def cdf(self, d: ArrayLike) -> ArrayLike:
        """Cumulative probability ``P(D <= d)``."""
        d_arr = np.atleast_1d(np.asarray(d, dtype=np.int64))
        table = self._cdf_table()
        clipped = np.clip(d_arr, 0, self._dmax)
        out = np.where(clipped >= 1, table[np.maximum(clipped, 1) - 1], 0.0)
        if np.isscalar(d) or np.ndim(d) == 0:
            return float(out[0])
        return out.reshape(np.shape(d))

    def sf(self, d: ArrayLike) -> ArrayLike:
        """Survival function ``P(D > d)``."""
        cdf = self.cdf(d)
        return 1.0 - cdf

    def mean(self) -> float:
        """Expected degree ``E[D]``."""
        return float(np.dot(self.support(), self._weights()))

    def var(self) -> float:
        """Variance of the degree."""
        mu = self.mean()
        second = float(np.dot(self.support().astype(np.float64) ** 2, self._weights()))
        return second - mu * mu

    def sample(self, size: int, rng: RNGLike = None) -> np.ndarray:
        """Draw *size* i.i.d. degrees by inverse-CDF lookup."""
        size = check_positive_int(size, "size", minimum=0)
        gen = as_generator(rng)
        u = gen.random(size)
        idx = np.searchsorted(self._cdf_table(), u, side="left")
        return (idx + 1).astype(np.int64)

    def probabilities(self) -> np.ndarray:
        """Full pmf vector over ``1..dmax`` (copy)."""
        return self._weights().copy()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        params = ", ".join(f"{k}={v!r}" for k, v in self._repr_params().items())
        return f"{type(self).__name__}({params})"

    def _repr_params(self) -> dict:
        return {"dmax": self._dmax}


class DiscretePowerLaw(DiscreteDegreeDistribution):
    """Truncated discrete power law ``p(d) ∝ d^{-α}`` on ``1..dmax``.

    This is the degree law of the PALU core (Section V: "The number of core
    nodes of the underlying network having degree d follows a power-law
    distribution of the form ``d^{-α}/ζ(α)``").
    """

    def __init__(self, alpha: float, dmax: int) -> None:
        super().__init__(dmax)
        self.alpha = check_positive(alpha, "alpha")

    def _unnormalized(self, degrees: np.ndarray) -> np.ndarray:
        return degrees.astype(np.float64) ** (-self.alpha)

    def normalization(self) -> float:
        """The truncated-zeta normaliser ``Σ_{d=1}^{dmax} d^{-α}``."""
        return truncated_zeta(self.alpha, self._dmax)

    def _repr_params(self) -> dict:
        return {"alpha": self.alpha, "dmax": self._dmax}


class ZipfMandelbrotDistribution(DiscreteDegreeDistribution):
    """Modified Zipf–Mandelbrot law ``p(d) ∝ (d + δ)^{-α}`` on ``1..dmax``.

    The offset ``δ`` controls the behaviour at small ``d`` (in particular the
    mass at ``d = 1``, which is the most probable value in the streaming
    observations), while ``α`` controls the tail.  ``1 + δ`` must be positive
    so every term is defined.
    """

    def __init__(self, alpha: float, delta: float, dmax: int) -> None:
        super().__init__(dmax)
        self.alpha = check_positive(alpha, "alpha")
        delta = float(delta)
        if 1.0 + delta <= 0.0:
            raise ValueError(f"delta must satisfy 1 + delta > 0, got {delta!r}")
        self.delta = delta

    def _unnormalized(self, degrees: np.ndarray) -> np.ndarray:
        return (degrees.astype(np.float64) + self.delta) ** (-self.alpha)

    def normalization(self) -> float:
        """``Σ_{d=1}^{dmax} (d + δ)^{-α}``."""
        return truncated_hurwitz(self.alpha, self.delta, self._dmax)

    def _repr_params(self) -> dict:
        return {"alpha": self.alpha, "delta": self.delta, "dmax": self._dmax}


class PoissonDegreeDistribution(DiscreteDegreeDistribution):
    """Poisson law conditioned on ``1 <= d <= dmax``.

    Models the number of non-central nodes of an unattached star in the
    *observed* network, which is ``Poisson(λ p)`` by the thinning identity
    ``Bin(Po(λ), p) = Po(λ p)`` (Section V).  The zero class is excluded
    because an unattached centre with no surviving leaves is invisible.
    """

    def __init__(self, lam: float, dmax: int) -> None:
        super().__init__(dmax)
        self.lam = check_positive(lam, "lam")

    def _unnormalized(self, degrees: np.ndarray) -> np.ndarray:
        from scipy.special import gammaln

        d = degrees.astype(np.float64)
        # exp(d log λ - λ - log d!) evaluated stably in log space
        log_pmf = d * math.log(self.lam) - self.lam - gammaln(d + 1.0)
        return np.exp(log_pmf)

    def _repr_params(self) -> dict:
        return {"lam": self.lam, "dmax": self._dmax}


class GeometricTailDistribution(DiscreteDegreeDistribution):
    """Geometric-style law ``p(d) ∝ r^{1-d}`` on ``1..dmax`` with ``r > 1``.

    Section VI replaces the Poisson factor ``(Λ/d)^d`` with ``r^{1-d}``; this
    class materialises that approximation as a proper distribution so the two
    can be compared quantitatively.
    """

    def __init__(self, r: float, dmax: int) -> None:
        super().__init__(dmax)
        r = check_positive(r, "r")
        if r <= 1.0:
            raise ValueError(f"r must be > 1 for a decaying tail, got {r!r}")
        self.r = r

    def _unnormalized(self, degrees: np.ndarray) -> np.ndarray:
        d = degrees.astype(np.float64)
        return np.exp((1.0 - d) * math.log(self.r))

    def _repr_params(self) -> dict:
        return {"r": self.r, "dmax": self._dmax}


@dataclass(frozen=True)
class _PALUComponents:
    """Relative mass contributed by each PALU piece at every degree."""

    core: np.ndarray
    leaves: np.ndarray
    unattached: np.ndarray


class PALUDegreeDistribution(DiscreteDegreeDistribution):
    """The reduced PALU degree law of Equations (2)–(4).

    ``p(1) ∝ c + l + u`` and for ``d >= 2`` ``p(d) ∝ c·d^{-α} + u·(Λ/d)^d``
    where ``c, l, u >= 0`` are the reduced core / leaf / unattached weights
    and ``Λ = e·λ·p`` encodes the clustering of the unattached stars.

    Parameters
    ----------
    c, l, u:
        Reduced weights (need not sum to one; the distribution is
        normalised over its support).
    alpha:
        Power-law exponent of the core.
    Lambda:
        The ``Λ`` parameter of the Poisson-derived factor ``(Λ/d)^d``
        (``Λ = e·λ·p`` in the paper's parameterisation).
    dmax:
        Largest degree of the support.
    form:
        Shape of the unattached term for ``d >= 2``:
        ``"stirling"`` (default) uses the paper's ``(Λ/d)^d``;
        ``"poisson"`` uses the exact ``m^d/d!`` with ``m = Λ/e``, which is
        the form the moment-based fitting recipe assumes.
    """

    def __init__(
        self,
        c: float,
        l: float,
        u: float,
        alpha: float,
        Lambda: float,
        dmax: int,
        *,
        form: str = "stirling",
    ) -> None:
        super().__init__(dmax)
        self.c = check_nonnegative(c, "c")
        self.l = check_nonnegative(l, "l")
        self.u = check_nonnegative(u, "u")
        if self.c + self.l + self.u <= 0:
            raise ValueError("at least one of c, l, u must be positive")
        self.alpha = check_positive(alpha, "alpha")
        self.Lambda = check_nonnegative(Lambda, "Lambda")
        if form not in ("stirling", "poisson"):
            raise ValueError(f"unknown form {form!r}; expected 'stirling' or 'poisson'")
        self.form = form

    # -- PALU-specific helpers ----------------------------------------------

    def _components(self) -> _PALUComponents:
        d = self.support().astype(np.float64)
        core = self.c * d ** (-self.alpha)
        leaves = np.zeros_like(d)
        unattached = np.zeros_like(d)
        # degree-1 bin collects core + leaves + unattached centres (Eq. 2)
        leaves[0] = self.l
        unattached[0] = self.u
        if self.Lambda > 0:
            with np.errstate(over="ignore"):
                if self.form == "stirling":
                    log_term = d[1:] * (np.log(self.Lambda) - np.log(d[1:]))
                else:  # exact Poisson form with m = Λ / e
                    from scipy.special import gammaln

                    m = self.Lambda / math.e
                    log_term = d[1:] * np.log(m) - gammaln(d[1:] + 1.0)
            unattached[1:] = self.u * np.exp(log_term)
        return _PALUComponents(core=core, leaves=leaves, unattached=unattached)

    def _unnormalized(self, degrees: np.ndarray) -> np.ndarray:
        comp = self._components()
        total = comp.core + comp.leaves + comp.unattached
        return total[degrees - 1]

    def component_fractions(self) -> dict:
        """Fraction of total probability mass carried by each PALU piece."""
        comp = self._components()
        total = float((comp.core + comp.leaves + comp.unattached).sum())
        return {
            "core": float(comp.core.sum()) / total,
            "leaves": float(comp.leaves.sum()) / total,
            "unattached": float(comp.unattached.sum()) / total,
        }

    def degree_one_fraction(self) -> float:
        """Probability of degree 1 — Equation (2) of the paper."""
        return float(self.pmf(1))

    def tail_distribution(self) -> DiscretePowerLaw:
        """The pure power law the mixture approaches for ``d >= 10`` (Eq. 4)."""
        return DiscretePowerLaw(self.alpha, self._dmax)

    def _repr_params(self) -> dict:
        return {
            "c": self.c,
            "l": self.l,
            "u": self.u,
            "alpha": self.alpha,
            "Lambda": self.Lambda,
            "dmax": self._dmax,
            "form": self.form,
        }
