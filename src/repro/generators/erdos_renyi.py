"""Erdős–Rényi graphs and Bernoulli edge thinning.

Two distinct uses in the paper:

* the *observed* network is obtained by "retaining each edge independently
  with probability p, creating an Erdős–Rényi random subnetwork of the
  underlying network" (Section V) — that thinning operation lives in
  :mod:`repro.generators.sampling`;
* the conclusions mention combining preferential attachment with the
  Erdős–Rényi model as future work, and the tests use G(n, p) graphs as a
  non-heavy-tailed control whose degree data the power-law fitters must
  *reject*.

This module provides the classic ``G(n, p)`` generator.  It walks the
flattened upper triangle of the adjacency matrix by geometric skipping: one
``Geometric(p)`` gap per kept pair, so the cost follows the edge count, not
``n²``.  ``p = 1`` keeps every pair.  Either way the kept flat indices map
back to ``(i, j)`` through one closed-form row inversion.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro._util.rng import RNGLike, as_generator
from repro._util.validation import check_fraction, check_positive_int

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["generate_erdos_renyi", "erdos_renyi_edges"]


def erdos_renyi_edges(n_nodes: int, p: float, rng: RNGLike = None) -> np.ndarray:
    """Edge list of a ``G(n, p)`` graph as an ``(m, 2)`` int64 array."""
    n_nodes = check_positive_int(n_nodes, "n_nodes")
    p = check_fraction(p, "p")
    gen = as_generator(rng)
    if p == 0.0 or n_nodes < 2:
        return np.zeros((0, 2), dtype=np.int64)
    total_pairs = n_nodes * (n_nodes - 1) // 2
    if p == 1.0:
        return _pairs_of_flat(np.arange(total_pairs, dtype=np.int64), n_nodes)
    # geometric skipping over the flattened upper triangle
    expected = int(total_pairs * p * 1.2) + 16
    positions: list[np.ndarray] = []
    pos = -1
    drawn = 0
    while True:
        gaps = gen.geometric(p, size=max(expected - drawn, 1024))
        cumulative = pos + np.cumsum(gaps)
        inside = cumulative < total_pairs
        positions.append(cumulative[inside])
        drawn += int(inside.sum())
        if not inside.all():
            break
        pos = int(cumulative[-1])
    return _pairs_of_flat(np.concatenate(positions), n_nodes)


def _pairs_of_flat(flat: np.ndarray, n_nodes: int) -> np.ndarray:
    """``(i, j)`` rows of the row-major upper-triangle indices *flat* of ``n_nodes``.

    Pair ``(i, j)`` with ``i < j`` sits at ``i·n − i·(i+1)/2 + (j − i − 1)``.
    Solving that quadratic for the row gives ``i`` in closed form, in
    float64; ``tests/test_generators_basic.py`` pins it at every row
    boundary it checks up to ``n = 10⁷``.
    """
    i = (
        n_nodes
        - 2
        - np.floor(np.sqrt(-8.0 * flat + 4.0 * n_nodes * (n_nodes - 1) - 7) / 2.0 - 0.5)
    ).astype(np.int64)
    j = flat + i + 1 - i * (2 * n_nodes - i - 1) // 2
    return np.column_stack([i, j])


def generate_erdos_renyi(n_nodes: int, p: float, rng: RNGLike = None) -> nx.Graph:
    """``G(n, p)`` graph on nodes ``0..n_nodes-1``."""
    import networkx as nx

    edges = erdos_renyi_edges(n_nodes, p, rng=rng)
    graph = nx.Graph()
    graph.add_nodes_from(range(n_nodes))
    graph.add_edges_from(map(tuple, edges.tolist()))
    return graph
