"""Configuration-model graphs from prescribed degree sequences.

The PALU analysis only assumes that the core's degree distribution is the
zeta law ``d^{-α}/ζ(α)`` — the exact wiring is irrelevant to every formula
in Section IV.  The configuration model is therefore the work-horse core
generator for the large synthetic networks used by the experiments: draw a
degree sequence from the target law and pair up edge stubs uniformly at
random.  Self-loops and multi-edges produced by the pairing are discarded
(their expected number is a vanishing fraction for heavy-tailed sequences of
the sizes used here), which leaves the empirical degree distribution within
sampling noise of the target.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro._util.rng import RNGLike, as_generator
from repro._util.validation import check_integer_array
from repro.generators.degree_sequence import make_sum_even

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["generate_configuration_model", "configuration_model_edges"]


def configuration_model_edges(degrees: np.ndarray, rng: RNGLike = None) -> np.ndarray:
    """Stub-pairing edge list for the given degree sequence.

    Returns an ``(m, 2)`` int64 array of undirected ``(lo, hi)`` edges in
    lexicographic order, with self-loops and duplicate edges removed.  Node
    ``i`` receives ``degrees[i]`` stubs; an odd total is fixed up by
    :func:`make_sum_even`.
    """
    degrees = check_integer_array(degrees, "degrees", minimum=0)
    gen = as_generator(rng)
    degrees = make_sum_even(degrees, rng=gen)
    stubs = np.repeat(np.arange(degrees.size, dtype=np.int64), degrees)
    if stubs.size == 0:
        return np.zeros((0, 2), dtype=np.int64)
    gen.shuffle(stubs)
    pairs = stubs.reshape(-1, 2)
    # drop self-loops
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    # canonical (lo, hi) order, then dedupe multi-edges on one packed key
    # per pair: sorted keys are in lexicographic (lo, hi) order; keeping the
    # first of each run of equal keys gives np.unique's output without the
    # hash pass numpy >= 2.3 takes for it
    pairs = np.sort(pairs, axis=1)
    keys = (pairs[:, 0] << 32) | pairs[:, 1]
    keys.sort()
    first = np.empty(keys.size, dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    keys = keys[first]
    return np.column_stack([keys >> 32, keys & 0xFFFFFFFF])


def generate_configuration_model(degrees: np.ndarray, rng: RNGLike = None) -> nx.Graph:
    """Simple graph sampled from the configuration model of *degrees*.

    Nodes are labelled ``0..len(degrees)-1``; nodes whose stubs were all lost
    to self-loop/duplicate removal stay in the graph with degree zero so
    callers can decide whether to treat them as isolated (unobservable).
    """
    import networkx as nx

    degrees = check_integer_array(degrees, "degrees", minimum=0)
    edges = configuration_model_edges(degrees, rng=rng)
    graph = nx.Graph()
    graph.add_nodes_from(range(int(degrees.size)))
    graph.add_edges_from(map(tuple, edges.tolist()))
    return graph
