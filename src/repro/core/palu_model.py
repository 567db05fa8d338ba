"""The PALU (Preferential Attachment + Leaves + Unattached) model.

Sections III–V of the paper define a two-layer generative model:

**Underlying network** — three independent pieces:

* a *core* generated by preferential attachment whose degree distribution is
  the zeta-normalised power law ``d^{-α}/ζ(α)``,
* *leaves*: degree-1 nodes attached to core nodes,
* *unattached* star components: ``U·N`` centres, each with ``Poisson(λ)``
  non-central leaf nodes (centres that end up with zero leaves are isolated
  and therefore unobservable).

The node proportions obey the normalisation (paper, Section III-A)

.. math:: C + L + U\\,(1 + λ - e^{-λ}) = 1 .

**Observed network** — every edge of the underlying network is retained
independently with probability ``p`` (the window-size parameter), i.e. an
Erdős–Rényi edge sampling of the underlying network.

This module implements :class:`PALUParameters` (the five model parameters
with their constraint), the closed-form expectations of Section IV for the
observed network (node-class fractions, degree-1 fraction, degree-``d``
fractions), the reduced parameters ``(c, l, u, Λ)`` of Section IV-B, and the
construction of the corresponding
:class:`repro.core.distributions.PALUDegreeDistribution`.

Two evaluation modes are provided throughout:

* ``method="paper"`` — the literal formulas printed in Section IV (which use
  an integral approximation for the core visibility and the Stirling-style
  factor ``(Λ/d)^d``), and
* ``method="exact"`` — the exact expectations of the same generative process
  (binomial thinning of the zeta-law core summed numerically, exact Poisson
  terms), used to validate the paper's approximations against simulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from repro._util.validation import check_fraction, check_in_range, check_nonnegative, check_positive_int
from repro.core.distributions import PALUDegreeDistribution
from repro.core.zeta import riemann_zeta

__all__ = [
    "PALUParameters",
    "ReducedPALUParameters",
    "visible_fraction",
    "expected_class_fractions",
    "expected_degree_one_fraction",
    "expected_degree_fractions",
    "reduced_parameters",
    "degree_distribution",
]

#: Truncation used when the exact core expectations are summed numerically.
_EXACT_CORE_DMAX = 200_000


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PALUParameters:
    """The five PALU model parameters ``(C, L, U, λ, α)``.

    Attributes
    ----------
    core:
        Proportion ``C`` of underlying-network nodes in the PA core.
    leaves:
        Proportion ``L`` of underlying-network nodes that are leaves attached
        to the core.
    unattached:
        Proportion ``U`` of underlying-network nodes that are *centres* of
        unattached star components.
    lam:
        Mean ``λ`` of the Poisson number of non-central nodes per unattached
        star.  The paper restricts ``λ ∈ [0, 20]``.
    alpha:
        Power-law exponent of the core degree distribution.  The paper
        restricts ``α ∈ [1.5, 3]`` (the fits of Figure 3 all fall in that
        range); values slightly outside are accepted with ``strict=False``.

    The proportions must satisfy ``C + L + U·(1 + λ − e^{-λ}) = 1`` (the
    star centres *and* their expected visible leaves account for the
    unattached share of nodes).  Use :meth:`from_weights` to build a
    parameter set from unnormalised weights.
    """

    core: float
    leaves: float
    unattached: float
    lam: float
    alpha: float
    strict: bool = True

    #: Absolute tolerance on the normalisation constraint.
    _CONSTRAINT_ATOL = 1e-6

    def __post_init__(self) -> None:
        check_fraction(self.core, "core")
        check_fraction(self.leaves, "leaves")
        check_fraction(self.unattached, "unattached")
        check_in_range(self.lam, "lam", 0.0, 20.0)
        if self.strict:
            check_in_range(self.alpha, "alpha", 1.5, 3.0)
        else:
            check_in_range(self.alpha, "alpha", 1.0 + 1e-9, 6.0)
        residual = abs(self.constraint_value() - 1.0)
        if residual > self._CONSTRAINT_ATOL:
            raise ValueError(
                "PALU proportions must satisfy C + L + U(1 + λ − e^{-λ}) = 1; "
                f"got {self.constraint_value():.6f} (residual {residual:.2e}). "
                "Use PALUParameters.from_weights to normalise automatically."
            )

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_weights(
        cls,
        core_weight: float,
        leaf_weight: float,
        unattached_weight: float,
        lam: float,
        alpha: float,
        *,
        strict: bool = True,
    ) -> "PALUParameters":
        """Build parameters from *unnormalised* class weights.

        The weights are interpreted as relative node masses of the core, the
        leaves, and the unattached portion (centres plus expected visible
        star leaves); they are rescaled so the constraint holds exactly, and
        the unattached weight is converted back into the centre proportion
        ``U``.
        """
        core_weight = check_nonnegative(core_weight, "core_weight")
        leaf_weight = check_nonnegative(leaf_weight, "leaf_weight")
        unattached_weight = check_nonnegative(unattached_weight, "unattached_weight")
        lam = check_in_range(lam, "lam", 0.0, 20.0)
        total = core_weight + leaf_weight + unattached_weight
        if total <= 0:
            raise ValueError("at least one class weight must be positive")
        unattached_share = unattached_weight / total
        star_factor = 1.0 + lam - math.exp(-lam)
        if unattached_share > 0 and star_factor <= unattached_share:
            raise ValueError(
                "the requested unattached node share "
                f"({unattached_share:.3f}) is unreachable with λ = {lam:.3g}: each star "
                f"contributes only {star_factor:.3g} observable nodes per centre, which "
                "would require a centre proportion above 1. Increase λ or lower the "
                "unattached weight."
            )
        return cls(
            core=core_weight / total,
            leaves=leaf_weight / total,
            unattached=unattached_share / star_factor if unattached_share > 0 else 0.0,
            lam=lam,
            alpha=alpha,
            strict=strict,
        )

    # -- derived quantities ----------------------------------------------------

    def constraint_value(self) -> float:
        """Left-hand side of the normalisation ``C + L + U(1 + λ − e^{-λ})``."""
        return self.core + self.leaves + self.unattached * (1.0 + self.lam - math.exp(-self.lam))

    def unattached_node_fraction(self) -> float:
        """Fraction of *underlying* nodes living in unattached stars."""
        return self.unattached * (1.0 + self.lam - math.exp(-self.lam))

    def zeta_alpha(self) -> float:
        """``ζ(α)`` — the core degree-law normaliser."""
        return riemann_zeta(self.alpha)

    def with_alpha(self, alpha: float) -> "PALUParameters":
        """Copy with a different exponent (other proportions unchanged)."""
        return replace(self, alpha=alpha)

    def as_dict(self) -> dict:
        """Plain-dict form (useful for tabular reporting)."""
        return {
            "C": self.core,
            "L": self.leaves,
            "U": self.unattached,
            "lambda": self.lam,
            "alpha": self.alpha,
        }


@dataclass(frozen=True)
class ReducedPALUParameters:
    """The reduced observed-network parameters of Section IV-B.

    ``c``, ``l``, ``u`` are the degree-distribution weights of the core,
    leaf, and unattached pieces; ``Lambda = e·λ·p`` is the paper's clustering
    parameter and ``poisson_mean = λ·p`` the exact Poisson mean it
    approximates; ``p`` is the window parameter and ``visible_fraction`` the
    expected fraction ``V`` of underlying nodes that are observable.
    """

    c: float
    l: float
    u: float
    Lambda: float
    poisson_mean: float
    alpha: float
    p: float
    visible_fraction: float

    def degree_one_fraction(self) -> float:
        """Equation (2): expected fraction of degree-1 nodes ``c + l + u``...

        Note the unattached contribution at ``d = 1`` includes both star
        leaves and single-leaf centres; see
        :func:`expected_degree_one_fraction` for the full expression.  This
        method returns the *reduced-form* value ``c + l + u`` used by the
        fitting recipe.
        """
        return self.c + self.l + self.u

    def as_dict(self) -> dict:
        """Plain-dict form (useful for tabular reporting)."""
        return {
            "c": self.c,
            "l": self.l,
            "u": self.u,
            "Lambda": self.Lambda,
            "poisson_mean": self.poisson_mean,
            "alpha": self.alpha,
            "p": self.p,
            "V": self.visible_fraction,
        }


# ---------------------------------------------------------------------------
# Observed-network expectations (Section IV)
# ---------------------------------------------------------------------------


def _core_visible_fraction_paper(params: PALUParameters, p: float) -> float:
    """Paper's integral approximation ``C·p^{α−1} / ((α−1)·ζ(α))``."""
    return params.core * p ** (params.alpha - 1.0) / ((params.alpha - 1.0) * params.zeta_alpha())


def _core_visible_fraction_exact(params: PALUParameters, p: float, dmax: int = _EXACT_CORE_DMAX) -> float:
    """Exact visibility of the zeta-law core under binomial edge thinning.

    ``C · Σ_d (d^{-α}/ζ(α)) · (1 − (1−p)^d)`` summed to a large cutoff.
    """
    d = np.arange(1, dmax + 1, dtype=np.float64)
    weights = d ** (-params.alpha) / params.zeta_alpha()
    if p >= 1.0:
        survive = np.ones_like(d)
    else:
        survive = -np.expm1(d * math.log1p(-p))
    return params.core * float(np.sum(weights * survive))


def visible_fraction(params: PALUParameters, p: float, *, method: str = "paper") -> float:
    """Expected fraction ``V`` of underlying nodes visible in the observed network.

    ``V = C·p^{α−1}/((α−1)ζ(α)) + L·p + U·(1 + λp − e^{−λp})`` in the
    paper's approximation; the exact mode replaces the core term with the
    binomially-thinned sum.
    """
    p = check_fraction(p, "p")
    if p == 0.0:
        return 0.0
    if method == "paper":
        core_term = _core_visible_fraction_paper(params, p)
    elif method == "exact":
        core_term = _core_visible_fraction_exact(params, p)
    else:
        raise ValueError(f"unknown method {method!r}; expected 'paper' or 'exact'")
    leaf_term = params.leaves * p
    star_term = params.unattached * (1.0 + params.lam * p - math.exp(-params.lam * p))
    return core_term + leaf_term + star_term


def expected_class_fractions(params: PALUParameters, p: float, *, method: str = "paper") -> Mapping[str, float]:
    """Expected node-class fractions of the *observed* network (Section IV).

    Returns a mapping with keys ``core``, ``leaves``, ``unattached`` (node
    fractions, summing to 1) plus ``unattached_links`` — the expected number
    of isolated single-edge components per observed node
    (``U·λp·e^{−λp}/V``).
    """
    p = check_fraction(p, "p")
    if p == 0.0:
        raise ValueError("p must be positive to observe any node")
    V = visible_fraction(params, p, method=method)
    if method == "paper":
        core_term = _core_visible_fraction_paper(params, p)
    else:
        core_term = _core_visible_fraction_exact(params, p)
    leaf_term = params.leaves * p
    star_term = params.unattached * (1.0 + params.lam * p - math.exp(-params.lam * p))
    unattached_links = params.unattached * params.lam * p * math.exp(-params.lam * p)
    return {
        "core": core_term / V,
        "leaves": leaf_term / V,
        "unattached": star_term / V,
        "unattached_links": unattached_links / V,
    }


def expected_degree_one_fraction(params: PALUParameters, p: float, *, method: str = "paper") -> float:
    """Expected fraction of degree-1 nodes in the observed network.

    Paper's formula: ``[C·p^α/ζ(α) + L·p + U·λp·(1 + e^{−λp})] / V``.
    The exact mode replaces the core term ``C·p^α/ζ(α)`` (the probability a
    core node retains exactly one edge, in the paper's approximation) with
    the exact binomial sum ``C·Σ_d (d^{-α}/ζ(α))·d·p·(1−p)^{d−1}``.
    """
    p = check_fraction(p, "p")
    if p == 0.0:
        raise ValueError("p must be positive to observe any node")
    V = visible_fraction(params, p, method=method)
    lam_p = params.lam * p
    if method == "paper":
        core_term = params.core * p**params.alpha / params.zeta_alpha()
    elif method == "exact":
        d = np.arange(1, _EXACT_CORE_DMAX + 1, dtype=np.float64)
        weights = d ** (-params.alpha) / params.zeta_alpha()
        if p >= 1.0:
            prob_one = np.where(d == 1, 1.0, 0.0)
        else:
            prob_one = d * p * np.exp((d - 1.0) * math.log1p(-p))
        core_term = params.core * float(np.sum(weights * prob_one))
    else:
        raise ValueError(f"unknown method {method!r}; expected 'paper' or 'exact'")
    leaf_term = params.leaves * p
    star_term = params.unattached * lam_p * (1.0 + math.exp(-lam_p))
    return (core_term + leaf_term + star_term) / V


def expected_degree_fractions(
    params: PALUParameters,
    p: float,
    degrees: np.ndarray,
    *,
    method: str = "paper",
) -> np.ndarray:
    """Expected fraction of observed nodes having each degree in *degrees*.

    For ``d >= 2`` the paper's approximation is

    ``[ (C·p^α/ζ(α))·d^{-α} + U·e^{−λp}·(λp)^d/d! ] / V``

    (with the further Stirling form ``(e·λp/d)^d``); ``d = 1`` follows
    :func:`expected_degree_one_fraction`.  The exact mode evaluates the
    binomially-thinned core term numerically and uses the exact Poisson
    probability for the star term.
    """
    p = check_fraction(p, "p")
    if p == 0.0:
        raise ValueError("p must be positive to observe any node")
    deg = np.asarray(degrees, dtype=np.int64)
    if np.any(deg < 1):
        raise ValueError("degrees must be >= 1")
    V = visible_fraction(params, p, method=method)
    lam_p = params.lam * p
    zeta_a = params.zeta_alpha()
    out = np.zeros(deg.shape, dtype=np.float64)

    d_float = deg.astype(np.float64)
    if method == "paper":
        core = params.core * p**params.alpha / zeta_a * d_float ** (-params.alpha)
    elif method == "exact":
        core = params.core * _exact_core_degree_probability(params.alpha, p, deg, zeta_a)
    else:
        raise ValueError(f"unknown method {method!r}; expected 'paper' or 'exact'")

    from scipy.special import gammaln

    # unattached star centres of observed degree d (exact Poisson pmf)
    log_poisson = -lam_p + d_float * (math.log(lam_p) if lam_p > 0 else -np.inf) - gammaln(d_float + 1.0)
    star_centres = params.unattached * np.where(lam_p > 0, np.exp(log_poisson), 0.0)

    out = (core + star_centres) / V

    # degree-1 corrections: leaves of the core and leaves of the stars
    is_one = deg == 1
    if np.any(is_one):
        extra = params.leaves * p + params.unattached * lam_p
        out = np.where(is_one, out + extra / V, out)
    return out


def _exact_core_degree_probability(alpha: float, p: float, degrees: np.ndarray, zeta_a: float) -> np.ndarray:
    """``Σ_D (D^{-α}/ζ(α))·P[Bin(D, p) = d]`` for each requested degree ``d``.

    Evaluated with a log-space binomial pmf over a truncated range of
    underlying degrees ``D``; the truncation error is negligible because the
    zeta weights decay polynomially and the binomial concentrates near
    ``D ≈ d/p``.
    """
    from scipy.special import gammaln

    deg = np.asarray(degrees, dtype=np.int64)
    d_underlying_max = min(_EXACT_CORE_DMAX, max(int(deg.max() / max(p, 1e-6) * 10), 1000))
    D = np.arange(1, d_underlying_max + 1, dtype=np.float64)
    weights = D ** (-alpha) / zeta_a
    out = np.zeros(deg.shape, dtype=np.float64)
    log_p = math.log(p) if p > 0 else -np.inf
    log_q = math.log1p(-p) if p < 1.0 else -np.inf
    for i, d in enumerate(deg):
        d = float(d)
        valid = D >= d
        Dv = D[valid]
        if p >= 1.0:
            pmf = (Dv == d).astype(np.float64)
        else:
            log_binom = gammaln(Dv + 1.0) - gammaln(d + 1.0) - gammaln(Dv - d + 1.0)
            log_pmf = log_binom + d * log_p + (Dv - d) * log_q
            pmf = np.exp(log_pmf)
        out[i] = float(np.sum(weights[valid] * pmf))
    return out


# ---------------------------------------------------------------------------
# Reduced parameters and the induced degree distribution (Section IV-B)
# ---------------------------------------------------------------------------


def reduced_parameters(params: PALUParameters, p: float, *, method: str = "paper") -> ReducedPALUParameters:
    """Map the five PALU parameters plus ``p`` to the reduced set ``(c, l, u, Λ)``.

    ``c = C·p^α/(ζ(α)·V)``, ``l = L·p/V``, ``u = U·e^{−λp}/V`` and
    ``Λ = e·λ·p`` (Section IV-B).  The exact Poisson mean ``λ·p`` is carried
    alongside ``Λ`` because the moment-based estimator recovers the former.
    """
    p = check_fraction(p, "p")
    if p == 0.0:
        raise ValueError("p must be positive to observe any node")
    V = visible_fraction(params, p, method=method)
    lam_p = params.lam * p
    c = params.core * p**params.alpha / (params.zeta_alpha() * V)
    l = params.leaves * p / V
    u = params.unattached * math.exp(-lam_p) / V
    return ReducedPALUParameters(
        c=c,
        l=l,
        u=u,
        Lambda=math.e * lam_p,
        poisson_mean=lam_p,
        alpha=params.alpha,
        p=p,
        visible_fraction=V,
    )


def degree_distribution(
    params: PALUParameters,
    p: float,
    dmax: int,
    *,
    method: str = "paper",
    form: str = "stirling",
) -> PALUDegreeDistribution:
    """The reduced PALU degree distribution induced by ``(params, p)``.

    The returned distribution uses the reduced weights of
    :func:`reduced_parameters` and ``Λ = e·λ·p``.  *form* selects the shape
    of the unattached term: ``"stirling"`` (default) is the paper's
    ``(Λ/d)^d`` approximation; ``"poisson"`` uses the exact ``(λp)^d/d!``,
    which matches :func:`expected_degree_fractions` term for term and is the
    form assumed by the Section IV-B fitting recipe.
    """
    dmax = check_positive_int(dmax, "dmax")
    reduced = reduced_parameters(params, p, method=method)
    return PALUDegreeDistribution(
        c=reduced.c,
        l=reduced.l,
        u=reduced.u,
        alpha=params.alpha,
        Lambda=reduced.Lambda,
        dmax=dmax,
        form=form,
    )
