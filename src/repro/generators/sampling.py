"""Observation operators: how a network is *seen* by a measurement method.

The paper contrasts two ways of observing the underlying traffic network:

* **trunk-line observation** (MAWI/CAIDA style) — modelled as Erdős–Rényi
  *edge sampling*: every underlying edge appears in the observed network
  independently with probability ``p`` (Section V).  Nodes that lose all
  their edges become invisible.
* **webcrawling** (the data source behind the classic single-exponent
  power-law studies) — modelled as breadth-first exploration from one or
  more high-degree seeds, which naturally finds the connected core and its
  supernodes but never the unattached components and few of the leaves.

Both operators are provided here, plus uniform node sampling as a third
baseline.  Every operator accepts either a :class:`networkx.Graph` or an
``(m, 2)`` edge array and returns the same type it was given.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Iterable, Union

import numpy as np

from repro._util.rng import RNGLike, as_generator
from repro._util.validation import check_fraction, check_positive_int

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["sample_edges", "sample_edges_array", "node_sample", "webcrawl_sample"]

GraphOrEdges = Union["nx.Graph", np.ndarray]


def sample_edges_array(edges: np.ndarray, p: float, rng: RNGLike = None) -> np.ndarray:
    """Bernoulli(p) thinning of an ``(m, 2)`` edge array (the window operator)."""
    p = check_fraction(p, "p")
    arr = np.asarray(edges)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("edges must be an (m, 2) array")
    if p == 1.0:
        return arr.copy()
    if p == 0.0:
        return arr[:0].copy()
    gen = as_generator(rng)
    mask = gen.random(arr.shape[0]) < p
    return arr[mask]


def sample_edges(graph: GraphOrEdges, p: float, rng: RNGLike = None, *, seed: RNGLike = None) -> GraphOrEdges:
    """Erdős–Rényi edge sampling: keep each edge independently with probability *p*.

    This is the paper's observation model for trunk-line traffic windows: the
    observed network is a random subnetwork of the underlying network, and
    the only parameter that changes with the window size is *p*.

    Nodes that keep at least one edge survive; nodes that lose every edge are
    dropped (they are unobservable).  Accepts a graph or an edge array and
    returns the matching type.
    """
    if seed is not None and rng is None:
        rng = seed
    if isinstance(graph, np.ndarray):
        return sample_edges_array(graph, p, rng=rng)
    import networkx as nx

    p = check_fraction(p, "p")
    gen = as_generator(rng)
    edge_list = list(graph.edges())
    observed = nx.Graph()
    if not edge_list:
        return observed
    mask = gen.random(len(edge_list)) < p if p < 1.0 else np.ones(len(edge_list), dtype=bool)
    observed.add_edges_from(edge for edge, keep in zip(edge_list, mask) if keep)
    return observed


def node_sample(graph: nx.Graph, p: float, rng: RNGLike = None) -> nx.Graph:
    """Uniform node sampling: keep each node with probability *p*, inducing the subgraph."""
    import networkx as nx

    p = check_fraction(p, "p")
    gen = as_generator(rng)
    nodes = list(graph.nodes())
    if not nodes:
        return nx.Graph()
    mask = gen.random(len(nodes)) < p if p < 1.0 else np.ones(len(nodes), dtype=bool)
    kept = [n for n, keep in zip(nodes, mask) if keep]
    return graph.subgraph(kept).copy()


def webcrawl_sample(
    graph: nx.Graph,
    *,
    n_seeds: int = 1,
    max_nodes: int | None = None,
    seeds: Iterable | None = None,
    rng: RNGLike = None,
) -> nx.Graph:
    """Breadth-first "webcrawl" observation of a network.

    Crawling starts from *seeds* (by default the *n_seeds* highest-degree
    nodes — crawls "naturally sample the supernodes", Section II) and follows
    edges breadth-first until the frontier is exhausted or *max_nodes* nodes
    have been discovered.  The returned graph is the subgraph induced on the
    discovered nodes — a connected view that systematically misses the
    unattached components and most leaves, which is exactly the bias the
    PALU model was introduced to correct.
    """
    import networkx as nx

    n_seeds = check_positive_int(n_seeds, "n_seeds")
    if graph.number_of_nodes() == 0:
        return nx.Graph()
    if seeds is None:
        by_degree = sorted(graph.degree(), key=lambda kv: kv[1], reverse=True)
        seed_nodes = [node for node, _ in by_degree[:n_seeds]]
    else:
        seed_nodes = list(seeds)
        missing = [s for s in seed_nodes if s not in graph]
        if missing:
            raise ValueError(f"seed nodes not present in the graph: {missing[:5]}")
    limit = max_nodes if max_nodes is not None else graph.number_of_nodes()
    if limit < 1:
        raise ValueError("max_nodes must be >= 1")

    discovered: set = set()
    queue: deque = deque()
    for s in seed_nodes:
        if s not in discovered:
            discovered.add(s)
            queue.append(s)
    while queue and len(discovered) < limit:
        current = queue.popleft()
        for neighbor in graph.neighbors(current):
            if neighbor not in discovered:
                discovered.add(neighbor)
                queue.append(neighbor)
                if len(discovered) >= limit:
                    break
    return graph.subgraph(discovered).copy()
