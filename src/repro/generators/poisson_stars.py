"""Unattached Poisson star components (Section V).

The unattached portion of the PALU underlying network consists of ``U·N``
star components.  Each star has one central node and an independent
``Poisson(λ)`` number of non-central leaf nodes; centres that draw zero
leaves are isolated and — because an isolated node generates no traffic —
are unobservable and removed from the observed model.

:func:`generate_poisson_stars` materialises the stars as a graph (optionally
keeping the isolated centres so their existence can be studied, as the
paper's conclusions suggest); :func:`poisson_star_edges` returns just the
edge array used by the larger composite builders.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro._util.rng import RNGLike, as_generator
from repro._util.validation import check_in_range, check_positive_int

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["PoissonStarBatch", "poisson_star_edges", "generate_poisson_stars"]


@dataclass(frozen=True)
class PoissonStarBatch:
    """Edges and bookkeeping for a batch of Poisson stars.

    Attributes
    ----------
    edges:
        ``(m, 2)`` int64 array of (centre, leaf) edges; node ids are local,
        starting at 0.
    centre_ids:
        Node ids of the star centres, including isolated ones.
    leaf_counts:
        Number of leaves drawn for each centre (aligned with *centre_ids*).
    n_nodes:
        Total number of node ids allocated (centres + leaves).
    """

    edges: np.ndarray
    centre_ids: np.ndarray
    leaf_counts: np.ndarray
    n_nodes: int

    @property
    def n_isolated(self) -> int:
        """Number of centres that drew zero leaves (invisible to traffic)."""
        return int(np.count_nonzero(self.leaf_counts == 0))

    @property
    def n_single_edge_stars(self) -> int:
        """Number of stars with exactly one leaf — the *unattached links* of Fig. 2."""
        return int(np.count_nonzero(self.leaf_counts == 1))


def poisson_star_edges(
    n_stars: int,
    lam: float,
    *,
    rng: RNGLike = None,
) -> PoissonStarBatch:
    """Generate *n_stars* independent Poisson(λ) stars.

    Node ids are assigned locally: centres first (``0..n_stars-1``), then all
    leaves consecutively.  The caller is responsible for offsetting ids when
    composing with other graph pieces.
    """
    n_stars = check_positive_int(n_stars, "n_stars", minimum=0)
    lam = check_in_range(lam, "lam", 0.0, 20.0)
    gen = as_generator(rng)
    if n_stars == 0:
        return PoissonStarBatch(
            edges=np.zeros((0, 2), dtype=np.int64),
            centre_ids=np.zeros(0, dtype=np.int64),
            leaf_counts=np.zeros(0, dtype=np.int64),
            n_nodes=0,
        )
    leaf_counts = gen.poisson(lam, size=n_stars).astype(np.int64)
    total_leaves = int(leaf_counts.sum())
    centre_ids = np.arange(n_stars, dtype=np.int64)
    leaf_ids = np.arange(n_stars, n_stars + total_leaves, dtype=np.int64)
    centres_repeated = np.repeat(centre_ids, leaf_counts)
    edges = np.column_stack([centres_repeated, leaf_ids]) if total_leaves else np.zeros((0, 2), dtype=np.int64)
    return PoissonStarBatch(
        edges=edges,
        centre_ids=centre_ids,
        leaf_counts=leaf_counts,
        n_nodes=n_stars + total_leaves,
    )


def generate_poisson_stars(
    n_stars: int,
    lam: float,
    *,
    keep_isolated: bool = False,
    rng: RNGLike = None,
) -> nx.Graph:
    """Graph of *n_stars* Poisson(λ) star components.

    Parameters
    ----------
    n_stars:
        Number of star centres to generate.
    lam:
        Mean number of non-central leaves per star (``λ ∈ [0, 20]``).
    keep_isolated:
        Keep centres that drew zero leaves as isolated nodes (default False,
        matching the observed-model convention of removing them).
    rng:
        Seed or generator.
    """
    import networkx as nx

    batch = poisson_star_edges(n_stars, lam, rng=rng)
    graph = nx.Graph()
    if keep_isolated:
        graph.add_nodes_from(batch.centre_ids.tolist())
    else:
        visible = batch.centre_ids[batch.leaf_counts > 0]
        graph.add_nodes_from(visible.tolist())
    graph.add_edges_from(map(tuple, batch.edges.tolist()))
    return graph
