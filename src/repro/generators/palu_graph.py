"""The full PALU underlying-network generator (Section III).

Composes the three pieces of the PALU underlying network into one graph:

1. a **core** on ``round(C·N)`` nodes whose degree sequence is drawn from
   the truncated zeta law ``d^{-α}`` and wired by the configuration model
   (or, optionally, grown by shifted preferential attachment),
2. **leaves**: ``round(L·N)`` degree-1 nodes, each attached to a core node
   chosen proportionally to its core degree (high-degree cores accumulate
   the "supernode leaves" of Figure 2),
3. **unattached stars**: ``U·N`` centres with ``Poisson(λ)`` leaves each
   (centres with zero leaves stay in the bookkeeping as isolated nodes but
   carry no edges).

Node ids are consecutive integers with the classes occupying disjoint
ranges, recorded in the returned :class:`PALUGraph` so experiments can check
class-level predictions (e.g. the expected class fractions of Section IV)
without re-deriving membership from the topology.

The network is assembled as an ``(m, 2)`` edge array of ``u < v`` pairs in
lexicographic order, which is the order ``networkx`` lists the edges of the
same graph.  A :class:`networkx.Graph` is only built when
:attr:`PALUGraph.graph` is first read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from repro._util.rng import RNGLike, as_generator
from repro._util.validation import check_positive_int
from repro.core.palu_model import PALUParameters
from repro.generators.configuration_model import configuration_model_edges
from repro.generators.degree_sequence import sample_power_law_degrees
from repro.generators.poisson_stars import poisson_star_edges
from repro.generators.preferential_attachment import shifted_preferential_attachment_edges

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["PALUGraph", "generate_palu_graph"]


@dataclass(frozen=True)
class PALUGraph:
    """A PALU underlying network with class bookkeeping.

    Attributes
    ----------
    edges:
        ``(m, 2)`` int64 array of ``u < v`` edges in lexicographic order
        (read-only).
    n_nodes:
        Total number of underlying nodes (including isolated star centres);
        node ids are ``0..n_nodes-1``.
    core_nodes, leaf_nodes, star_centres, star_leaves:
        Node-id arrays for each class.
    parameters:
        The :class:`~repro.core.palu_model.PALUParameters` used to build it.
    """

    edges: np.ndarray
    n_nodes: int
    core_nodes: np.ndarray
    leaf_nodes: np.ndarray
    star_centres: np.ndarray
    star_leaves: np.ndarray
    parameters: PALUParameters

    @cached_property
    def graph(self) -> nx.Graph:
        """The underlying network as a graph, built on first access."""
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(range(self.n_nodes))
        graph.add_edges_from(self.edges.tolist())
        return graph

    @property
    def n_edges(self) -> int:
        """Total number of underlying edges."""
        return int(self.edges.shape[0])

    def class_of(self) -> dict:
        """Mapping node id → class name (``core``/``leaf``/``centre``/``star_leaf``)."""
        mapping: dict = {}
        mapping.update({int(n): "core" for n in self.core_nodes})
        mapping.update({int(n): "leaf" for n in self.leaf_nodes})
        mapping.update({int(n): "centre" for n in self.star_centres})
        mapping.update({int(n): "star_leaf" for n in self.star_leaves})
        return mapping

    def class_counts(self) -> dict:
        """Number of underlying nodes in each class."""
        return {
            "core": int(self.core_nodes.size),
            "leaves": int(self.leaf_nodes.size),
            "star_centres": int(self.star_centres.size),
            "star_leaves": int(self.star_leaves.size),
        }

    def edges_array(self) -> np.ndarray:
        """All underlying edges as an ``(m, 2)`` int64 array (read-only)."""
        return self.edges


def _build_core(
    n_core: int,
    alpha: float,
    core_model: str,
    core_dmax: int,
    gen: np.random.Generator,
) -> np.ndarray:
    """Sorted, unique ``(lo, hi)`` edge array of the core on node ids ``0..n_core-1``."""
    if n_core < 2:
        return np.zeros((0, 2), dtype=np.int64)
    if core_model == "configuration":
        degrees = sample_power_law_degrees(n_core, alpha, dmax=core_dmax, rng=gen)
        return configuration_model_edges(degrees, rng=gen)
    if core_model == "preferential-attachment":
        return shifted_preferential_attachment_edges(n_core, 1, alpha=alpha, rng=gen)
    raise ValueError(
        f"unknown core_model {core_model!r}; expected 'configuration' or 'preferential-attachment'"
    )


def generate_palu_graph(
    parameters: PALUParameters,
    n_nodes: int,
    *,
    core_model: str = "configuration",
    core_dmax: int | None = None,
    rng: RNGLike = None,
    seed: RNGLike = None,
) -> PALUGraph:
    """Generate a PALU underlying network with ~*n_nodes* nodes.

    Parameters
    ----------
    parameters:
        The five PALU parameters ``(C, L, U, λ, α)``.
    n_nodes:
        Target total number of underlying nodes; the realised count differs
        slightly because star leaves are Poisson draws.
    core_model:
        ``"configuration"`` (default; zeta-law degree sequence wired by the
        configuration model — fast, exactly matching the analysis, and valid
        for any ``α``) or ``"preferential-attachment"`` (shifted-kernel
        growth, matching the paper's narrative construction, and only able
        to reach exponents ``α > 2``).
    core_dmax:
        Truncation of the core degree law; defaults to ``max(1000, n_core)``.
    rng, seed:
        Seed or generator (``seed`` is an alias for ``rng``).

    Returns
    -------
    PALUGraph
    """
    n_nodes = check_positive_int(n_nodes, "n_nodes", minimum=10)
    if seed is not None and rng is None:
        rng = seed
    gen = as_generator(rng)

    n_core = int(round(parameters.core * n_nodes))
    n_leaves = int(round(parameters.leaves * n_nodes))
    n_centres = int(round(parameters.unattached * n_nodes))

    core_dmax = int(core_dmax) if core_dmax is not None else max(1000, n_core)
    edges = _build_core(n_core, parameters.alpha, core_model, core_dmax, gen)
    core_nodes = np.arange(n_core, dtype=np.int64)

    # leaves attach preferentially to high-degree core nodes so that
    # supernodes accumulate the "supernode leaves" of Figure 2
    leaf_nodes = np.arange(n_core, n_core + n_leaves, dtype=np.int64)
    if n_leaves > 0 and n_core > 0:
        # core degrees; +1 keeps zero-degree cores reachable
        weights = np.bincount(edges.ravel(), minlength=n_core) + 1.0
        weights /= weights.sum()
        anchors = gen.choice(n_core, size=n_leaves, replace=True, p=weights)
        # one sort of packed (lo << 32) | hi keys is the lexicographic
        # (lo, hi) merge; node ids stay far below 2**31
        keys = np.concatenate([edges[:, 0], anchors]) << 32
        keys |= np.concatenate([edges[:, 1], leaf_nodes])
        keys.sort()
        edges = np.column_stack([keys >> 32, keys & 0xFFFFFFFF])

    # unattached Poisson stars, offset past core + leaves; their (centre,
    # leaf) pairs already sort after every core and leaf edge
    offset = n_core + n_leaves
    stars = poisson_star_edges(n_centres, parameters.lam, rng=gen)
    edges = np.concatenate([edges, stars.edges + offset])
    edges.setflags(write=False)

    return PALUGraph(
        edges=edges,
        n_nodes=offset + stars.n_nodes,
        core_nodes=core_nodes,
        leaf_nodes=leaf_nodes,
        star_centres=stars.centre_ids + offset,
        star_leaves=np.arange(offset + n_centres, offset + stars.n_nodes, dtype=np.int64),
        parameters=parameters,
    )
