"""Topological decomposition of traffic networks (Figure 2).

The paper's Figure 2 partitions an observed traffic network into:

* **supernodes** — very-high-degree hubs,
* **supernode leaves** — degree-1 nodes whose single neighbour is a supernode,
* the **core** — the remaining nodes of the giant / large connected
  component(s),
* **core leaves** — degree-1 nodes attached to non-supernode core nodes, and
* **unattached links** — small components disconnected from every large
  component (isolated edges and small stars, the bot-like traffic).

:func:`decompose_topology` performs that partition on a
:class:`networkx.Graph` (or an edge array) and returns per-class node sets
plus summary counts, which the Fig. 2 benchmark and the PALU-expectation
tests consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro._util.validation import check_in_range, check_positive_int

if TYPE_CHECKING:
    import networkx as nx

__all__ = [
    "TopologyDecomposition",
    "decompose_topology",
    "find_supernodes",
    "max_degree",
    "count_unattached_links",
]


def _as_graph(graph_or_edges: nx.Graph | Sequence) -> nx.Graph:
    """Coerce an edge sequence / array into an undirected simple graph."""
    import networkx as nx

    if isinstance(graph_or_edges, nx.Graph):
        return graph_or_edges
    edges = np.asarray(graph_or_edges)
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise ValueError("edges must be an (m, 2) array of node pairs")
    g = nx.Graph()
    g.add_edges_from(map(tuple, edges.tolist()))
    return g


def max_degree(graph_or_edges: nx.Graph | Sequence) -> int:
    """Largest degree in the network — the paper's ``dmax`` (Eq. 1)."""
    g = _as_graph(graph_or_edges)
    if g.number_of_nodes() == 0:
        return 0
    return max(d for _, d in g.degree())


def find_supernodes(
    graph_or_edges: nx.Graph | Sequence,
    *,
    quantile: float = 0.999,
    min_degree: int = 10,
) -> list:
    """Identify supernodes as nodes whose degree exceeds a high quantile.

    A node is a supernode when its degree is at least ``min_degree`` **and**
    at or above the *quantile*-th quantile of the degree distribution.  The
    defaults pick out the handful of hubs that dominate trunk traffic
    without flagging ordinary core nodes.
    """
    quantile = check_in_range(quantile, "quantile", 0.0, 1.0)
    min_degree = check_positive_int(min_degree, "min_degree")
    g = _as_graph(graph_or_edges)
    if g.number_of_nodes() == 0:
        return []
    degrees = dict(g.degree())
    values = np.fromiter(degrees.values(), dtype=np.int64)
    threshold = max(float(np.quantile(values, quantile)), float(min_degree))
    return [node for node, d in degrees.items() if d >= threshold]


@dataclass(frozen=True)
class TopologyDecomposition:
    """Partition of a traffic network into the Figure-2 classes.

    All node containers are Python sets; the counts are exposed as
    properties so the decomposition can be rendered as a one-line summary.
    """

    supernodes: frozenset
    supernode_leaves: frozenset
    core: frozenset
    core_leaves: frozenset
    unattached: frozenset
    isolated: frozenset
    n_unattached_links: int
    n_edges: int

    @property
    def n_nodes(self) -> int:
        """Total number of (observable) nodes across all classes."""
        return (
            len(self.supernodes)
            + len(self.supernode_leaves)
            + len(self.core)
            + len(self.core_leaves)
            + len(self.unattached)
        )

    def fractions(self) -> dict:
        """Node fraction per class (keys match the PALU expectation names)."""
        n = max(self.n_nodes, 1)
        return {
            "supernodes": len(self.supernodes) / n,
            "supernode_leaves": len(self.supernode_leaves) / n,
            "core": len(self.core) / n,
            "core_leaves": len(self.core_leaves) / n,
            "unattached": len(self.unattached) / n,
        }

    def leaf_fraction(self) -> float:
        """Fraction of nodes that are degree-1 leaves of a large component."""
        n = max(self.n_nodes, 1)
        return (len(self.supernode_leaves) + len(self.core_leaves)) / n

    def summary(self) -> dict:
        """Counts per class plus edge totals, for tabular reporting."""
        return {
            "n_nodes": self.n_nodes,
            "n_edges": self.n_edges,
            "n_supernodes": len(self.supernodes),
            "n_supernode_leaves": len(self.supernode_leaves),
            "n_core": len(self.core),
            "n_core_leaves": len(self.core_leaves),
            "n_unattached_nodes": len(self.unattached),
            "n_unattached_links": self.n_unattached_links,
            "n_isolated": len(self.isolated),
        }


def count_unattached_links(graph_or_edges: nx.Graph | Sequence, *, max_component_size: int = 2) -> int:
    """Number of edges living in components of at most *max_component_size* nodes.

    With the default of 2 this counts exactly the isolated source–destination
    pairs the paper calls *unattached links*.
    """
    import networkx as nx

    g = _as_graph(graph_or_edges)
    count = 0
    for component in nx.connected_components(g):
        if len(component) <= max_component_size:
            count += g.subgraph(component).number_of_edges()
    return count


def decompose_topology(
    graph_or_edges: nx.Graph | Sequence,
    *,
    large_component_threshold: int | None = None,
    supernode_quantile: float = 0.999,
    supernode_min_degree: int = 10,
    include_isolated: Iterable | None = None,
) -> TopologyDecomposition:
    """Partition a traffic network into the Figure-2 topology classes.

    Parameters
    ----------
    graph_or_edges:
        A networkx graph or an ``(m, 2)`` array of undirected edges.
    large_component_threshold:
        Components with at least this many nodes count as "large" (core-
        bearing); smaller ones are classified as unattached.  Defaults to
        ``max(3, 1 + sqrt(n_nodes))`` which separates the giant component
        from bot-like debris across the scales used in the experiments.
    supernode_quantile, supernode_min_degree:
        Passed to :func:`find_supernodes`.
    include_isolated:
        Optional iterable of isolated node ids known to exist in the
        underlying network but invisible to traffic observation (the paper
        removes them from the observed model); recorded separately.

    Returns
    -------
    TopologyDecomposition
    """
    import networkx as nx

    g = _as_graph(graph_or_edges)
    n_nodes = g.number_of_nodes()
    if large_component_threshold is None:
        large_component_threshold = max(3, int(1 + np.sqrt(max(n_nodes, 1))))

    supernodes: set = set()
    supernode_leaves: set = set()
    core: set = set()
    core_leaves: set = set()
    unattached: set = set()
    n_unattached_links = 0

    degrees = dict(g.degree())
    components = list(nx.connected_components(g))
    large_nodes: set = set()
    for component in components:
        if len(component) >= large_component_threshold:
            large_nodes |= component
        else:
            unattached |= component
            # "unattached links" in the paper's sense are isolated
            # source-destination pairs: components of exactly one edge
            if len(component) == 2:
                n_unattached_links += 1

    if large_nodes:
        large_sub = g.subgraph(large_nodes)
        supernodes = set(
            find_supernodes(
                large_sub,
                quantile=supernode_quantile,
                min_degree=supernode_min_degree,
            )
        )
        for node in large_nodes:
            if node in supernodes:
                continue
            if degrees[node] == 1:
                neighbor = next(iter(g.neighbors(node)))
                if neighbor in supernodes:
                    supernode_leaves.add(node)
                else:
                    core_leaves.add(node)
            else:
                core.add(node)

    isolated = frozenset(include_isolated or ())
    return TopologyDecomposition(
        supernodes=frozenset(supernodes),
        supernode_leaves=frozenset(supernode_leaves),
        core=frozenset(core),
        core_leaves=frozenset(core_leaves),
        unattached=frozenset(unattached),
        isolated=isolated,
        n_unattached_links=n_unattached_links,
        n_edges=g.number_of_edges(),
    )
