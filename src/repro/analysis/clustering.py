"""Clustering-coefficient analysis (paper future work).

The paper's conclusions list "deeper study into the degree distribution and
clustering coefficients" as follow-on work.  This module provides that study
for the reproduction's synthetic worlds:

* :func:`local_clustering` / :func:`average_clustering` — standard
  per-node and mean clustering coefficients (triangle density around a node),
  implemented directly so the library does not depend on networkx internals
  for its statistics,
* :func:`clustering_by_degree` — the degree-conditioned clustering profile
  ``C(d)``, the quantity used in the literature to distinguish
  preferential-attachment-style cores (low, slowly varying clustering) from
  clique-heavy structures, and
* :func:`clustering_summary` — one-row summary comparing the core of an
  observed PALU network with its leaves/unattached debris (which, being trees
  and stars, have clustering exactly zero — a checkable signature of the
  model).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping

import numpy as np

if TYPE_CHECKING:
    import networkx as nx

__all__ = [
    "local_clustering",
    "average_clustering",
    "clustering_by_degree",
    "clustering_summary",
]


def local_clustering(graph: nx.Graph) -> Mapping[int, float]:
    """Per-node clustering coefficients ``c_v = 2·T(v) / (deg(v)·(deg(v)−1))``.

    Nodes of degree 0 or 1 have coefficient 0 by convention.  Computed with a
    neighbour-set intersection per node, which is adequate for the sparse,
    heavy-tailed graphs the experiments use (the supernode cost is bounded by
    its neighbourhood's internal edge count).
    """
    neighbors = {node: set(graph.neighbors(node)) for node in graph.nodes()}
    coefficients: dict = {}
    for node, neighbor_set in neighbors.items():
        k = len(neighbor_set)
        if k < 2:
            coefficients[node] = 0.0
            continue
        links = 0
        for u in neighbor_set:
            # count each triangle edge once by ordering
            links += sum(1 for w in neighbors[u] if w in neighbor_set and w > u)
        coefficients[node] = 2.0 * links / (k * (k - 1))
    return coefficients


def average_clustering(graph: nx.Graph) -> float:
    """Mean of the per-node clustering coefficients (0 for an empty graph)."""
    if graph.number_of_nodes() == 0:
        return 0.0
    coefficients = local_clustering(graph)
    return float(np.mean(list(coefficients.values())))


def clustering_by_degree(graph: nx.Graph, *, min_degree: int = 2) -> Mapping[int, float]:
    """Degree-conditioned clustering profile ``C(d)``.

    Returns the mean clustering coefficient of all nodes with each degree
    ``d >= min_degree`` that occurs in the graph.
    """
    coefficients = local_clustering(graph)
    by_degree: dict = {}
    for node, c in coefficients.items():
        d = graph.degree(node)
        if d < min_degree:
            continue
        by_degree.setdefault(d, []).append(c)
    return {d: float(np.mean(values)) for d, values in sorted(by_degree.items())}


def clustering_summary(graph: nx.Graph, class_of: Mapping[int, str] | None = None) -> dict:
    """Summary row of clustering statistics, optionally split by PALU class.

    Parameters
    ----------
    graph:
        The (observed or underlying) network.
    class_of:
        Optional node → class mapping (as returned by
        :meth:`repro.generators.palu_graph.PALUGraph.class_of`); when given,
        per-class mean clustering is reported.  The leaf and unattached
        classes of a PALU network are trees/stars, so their clustering must
        be exactly zero — a structural signature tested in the suite.
    """
    coefficients = local_clustering(graph)
    summary = {
        "n_nodes": graph.number_of_nodes(),
        "average_clustering": float(np.mean(list(coefficients.values()))) if coefficients else 0.0,
        "max_clustering": float(max(coefficients.values())) if coefficients else 0.0,
        "fraction_clustered": float(np.mean([c > 0 for c in coefficients.values()]))
        if coefficients
        else 0.0,
    }
    if class_of is not None:
        per_class: dict = {}
        for node, c in coefficients.items():
            per_class.setdefault(class_of.get(node, "unknown"), []).append(c)
        for name, values in sorted(per_class.items()):
            summary[f"clustering_{name}"] = float(np.mean(values))
    return summary
