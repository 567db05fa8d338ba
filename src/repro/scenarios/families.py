"""Graph families a scenario phase can draw its underlying network from.

The paper analyses traces whose underlying "who talks to whom" network is
fixed for the whole measurement; a scenario phase instead *names* one of the
generative families below, so successive phases can swap the substrate out
from under the traffic stream (the non-stationarity the paper's pooled
statistics assume away — see :mod:`repro.scenarios`).

Every family is a pure function ``(params, generator) → (m, 2) edge array``;
edge arrays are the common currency of the trace generator
(:data:`repro.streaming.trace_generator.GraphLike`), so scenario plumbing
never touches ``networkx`` objects.  Parameters are validated *by name* at
scenario registration time (:func:`validate_family`) — an unknown family or
a misspelled parameter fails when the scenario is declared, not packets
deep into a run.
"""

from __future__ import annotations

from typing import Callable, Mapping

import numpy as np

from repro.core.palu_model import PALUParameters
from repro.generators.configuration_model import configuration_model_edges
from repro.generators.degree_sequence import sample_power_law_degrees
from repro.generators.erdos_renyi import erdos_renyi_edges
from repro.generators.palu_graph import generate_palu_graph
from repro.generators.poisson_stars import poisson_star_edges
from repro.generators.preferential_attachment import shifted_preferential_attachment_edges

__all__ = ["GRAPH_FAMILY_NAMES", "family_defaults", "validate_family", "build_family_edges"]


def _erdos_renyi(params: Mapping[str, float], gen: np.random.Generator) -> np.ndarray:
    return erdos_renyi_edges(int(params["n_nodes"]), float(params["p"]), rng=gen)


def _configuration(params: Mapping[str, float], gen: np.random.Generator) -> np.ndarray:
    degrees = sample_power_law_degrees(
        int(params["n_nodes"]), float(params["alpha"]), dmax=int(params["dmax"]), rng=gen
    )
    return configuration_model_edges(degrees, rng=gen)


def _preferential_attachment(params: Mapping[str, float], gen: np.random.Generator) -> np.ndarray:
    return shifted_preferential_attachment_edges(
        int(params["n_nodes"]), int(params["m_edges"]), alpha=float(params["alpha"]), rng=gen
    )


def _palu(params: Mapping[str, float], gen: np.random.Generator) -> np.ndarray:
    palu_params = PALUParameters.from_weights(
        float(params["core"]),
        float(params["leaves"]),
        float(params["unattached"]),
        lam=float(params["lam"]),
        alpha=float(params["alpha"]),
        strict=False,
    )
    return generate_palu_graph(palu_params, int(params["n_nodes"]), rng=gen).edges_array()


def _poisson_stars(params: Mapping[str, float], gen: np.random.Generator) -> np.ndarray:
    return poisson_star_edges(int(params["n_stars"]), float(params["lam"]), rng=gen).edges


#: family name → (builder, default parameters).  The defaults double as the
#: set of *accepted* parameter names for registration-time validation.
_FAMILIES: dict[str, tuple[Callable[[Mapping[str, float], np.random.Generator], np.ndarray], dict[str, float]]] = {
    "erdos-renyi": (_erdos_renyi, {"n_nodes": 2_000, "p": 0.002}),
    "configuration": (_configuration, {"n_nodes": 2_000, "alpha": 2.0, "dmax": 10_000}),
    "preferential-attachment": (_preferential_attachment, {"n_nodes": 2_000, "m_edges": 1, "alpha": 2.5}),
    "palu": (
        _palu,
        {"n_nodes": 4_000, "core": 0.55, "leaves": 0.25, "unattached": 0.20, "lam": 2.0, "alpha": 2.0},
    ),
    "poisson-stars": (_poisson_stars, {"n_stars": 1_500, "lam": 2.0}),
}

#: Names accepted by :class:`repro.scenarios.Phase.graph`.
GRAPH_FAMILY_NAMES = tuple(_FAMILIES)


def family_defaults(family: str) -> dict[str, float]:
    """Default parameters of one graph family (a copy, safe to mutate)."""
    validate_family(family, {})
    return dict(_FAMILIES[family][1])


def validate_family(family: str, params: Mapping[str, float]) -> None:
    """Check a family name and its parameter names; raise ``ValueError`` otherwise."""
    if family not in _FAMILIES:
        raise ValueError(f"unknown graph family {family!r}; expected one of {GRAPH_FAMILY_NAMES}")
    unknown = set(params) - set(_FAMILIES[family][1])
    if unknown:
        raise ValueError(
            f"unknown parameter(s) {sorted(unknown)} for graph family {family!r}; "
            f"accepted: {sorted(_FAMILIES[family][1])}"
        )


def build_family_edges(
    family: str, params: Mapping[str, float], gen: np.random.Generator
) -> np.ndarray:
    """Build one realisation of *family* and return its ``(m, 2)`` edge array.

    *params* overrides the family defaults; unknown names raise exactly as at
    registration time (:func:`validate_family`).
    """
    validate_family(family, params)
    builder, defaults = _FAMILIES[family]
    merged = {**defaults, **dict(params)}
    edges = builder(merged, gen)
    if edges.shape[0] == 0:
        raise ValueError(
            f"graph family {family!r} with parameters {merged} produced no edges; "
            "traffic cannot be generated over an empty graph"
        )
    return edges
