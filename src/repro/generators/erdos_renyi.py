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

This module provides the classic ``G(n, p)`` generator, vectorised over the
upper triangle for moderate ``n`` and using geometric skipping for sparse
large ``n``.  The dense path draws one uniform per node pair, but in fixed
blocks through one reused buffer, so its memory does not grow with ``n²``.
Its 3,000-node limit is not a memory bound: it fixes which random stream a
given ``n`` consumes, and with it every recorded edge list and campaign
content key built from one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro._util.rng import RNGLike, as_generator
from repro._util.validation import check_fraction, check_positive_int

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["generate_erdos_renyi", "erdos_renyi_edges"]

#: Up to this node count ``G(n, p)`` draws one uniform per node pair; above
#: it, the sparse geometric-skipping sampler draws one gap per edge.  The two
#: consume different random streams, so moving the limit would change the
#: edges (and the golden digests and content keys) of every graph in between.
_DENSE_LIMIT = 3000

#: Uniforms per block of the dense path; blocks reuse one buffer, so the
#: dense draw never holds more than this many doubles at once.
_DENSE_BLOCK = 1 << 16


def erdos_renyi_edges(n_nodes: int, p: float, rng: RNGLike = None) -> np.ndarray:
    """Edge list of a ``G(n, p)`` graph as an ``(m, 2)`` int64 array."""
    n_nodes = check_positive_int(n_nodes, "n_nodes")
    p = check_fraction(p, "p")
    gen = as_generator(rng)
    if p == 0.0 or n_nodes < 2:
        return np.zeros((0, 2), dtype=np.int64)
    total_pairs = n_nodes * (n_nodes - 1) // 2
    if p == 1.0 or n_nodes <= _DENSE_LIMIT:
        # one uniform draw per pair of the row-major upper triangle; map the
        # kept flat indices back to (i, j) through each row's start offset
        if p == 1.0:
            flat = np.arange(total_pairs, dtype=np.int64)
        else:
            # consecutive fills of one reused buffer draw the same uniforms,
            # and leave gen in the same state, as one gen.random(total_pairs)
            buffer = np.empty(min(total_pairs, _DENSE_BLOCK))
            kept = []
            for offset in range(0, total_pairs, buffer.size):
                block = buffer[: total_pairs - offset]
                gen.random(out=block)
                kept.append(np.flatnonzero(block < p) + offset)
            flat = np.concatenate(kept)
        rows = np.arange(n_nodes - 1, dtype=np.int64)
        row_start = rows * n_nodes - rows * (rows + 1) // 2
        i = np.searchsorted(row_start, flat, side="right") - 1
        return np.column_stack([i, flat - row_start[i] + i + 1])
    # sparse path: geometric skipping over the flattened upper triangle
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
    flat = np.concatenate(positions) if positions else np.zeros(0, dtype=np.int64)
    # invert the flattened upper-triangle index: row i starts at offset
    # i*n - i*(i+1)/2 - (i+1); solve the quadratic for the row.
    i = (
        n_nodes
        - 2
        - np.floor(np.sqrt(-8.0 * flat + 4.0 * n_nodes * (n_nodes - 1) - 7) / 2.0 - 0.5)
    ).astype(np.int64)
    j = (flat + i + 1 - i * (2 * n_nodes - i - 1) // 2).astype(np.int64)
    return np.column_stack([i, j])


def generate_erdos_renyi(n_nodes: int, p: float, rng: RNGLike = None) -> nx.Graph:
    """``G(n, p)`` graph on nodes ``0..n_nodes-1``."""
    import networkx as nx

    edges = erdos_renyi_edges(n_nodes, p, rng=rng)
    graph = nx.Graph()
    graph.add_nodes_from(range(n_nodes))
    graph.add_edges_from(map(tuple, edges.tolist()))
    return graph
