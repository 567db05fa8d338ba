"""Preferential-attachment core generators.

The PALU core is "constructed by preferential attachment" (Section III) with
a power-law degree distribution whose exponent ``α`` the paper allows to
range over ``[1.5, 3]``.  Two generators are provided:

* :func:`generate_preferential_attachment` — the classic Barabási–Albert
  growth process (each new node attaches ``m`` edges preferentially), which
  produces exponent ``α ≈ 3`` asymptotically; implemented from scratch with
  the repeated-endpoint trick so attachment is exactly proportional to
  degree.
* :func:`generate_shifted_preferential_attachment` — growth with a shifted
  linear kernel ``Π(k) ∝ k + a``.  The attachment shift tunes the asymptotic
  exponent to ``α = 3 + a/m``, and redirection-style negative shifts reach
  the ``α < 3`` regime observed in Internet data; the convenience wrapper
  accepts a target ``α`` directly.

Both return :class:`networkx.Graph` objects whose nodes are labelled
``0..n-1`` in order of arrival.  :func:`shifted_preferential_attachment_edges`
returns the shifted-kernel network as a plain edge array instead, for the
builders that never need a graph object.

With ``m_edges > 1`` the shifted-kernel growth replays
``Generator.choice(replace=False, p=...)`` over the whole kernel at every
step, O(n²) in all.  With one edge per node, which is how the PALU core and
the scenario families grow it, the kernel ``d + a`` is a mixture
(Krapivsky–Redner redirection, Phys. Rev. E 63, 066123, 2001): attach to a
uniform earlier node, or copy the target of a uniform earlier edge.  That
samples the same law from one uniform per step, and pointer jumping
resolves the copies in O(n log n) numpy.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro._util.rng import RNGLike, as_generator
from repro._util.validation import check_in_range, check_positive_int

if TYPE_CHECKING:
    import networkx as nx

__all__ = [
    "generate_preferential_attachment",
    "generate_shifted_preferential_attachment",
    "shifted_preferential_attachment_edges",
    "attachment_shift_for_alpha",
]


def generate_preferential_attachment(
    n_nodes: int,
    m_edges: int = 1,
    *,
    rng: RNGLike = None,
) -> nx.Graph:
    """Barabási–Albert preferential attachment with *m_edges* per new node.

    Starts from a star on ``m_edges + 1`` nodes and grows one node at a
    time; each new node connects to ``m_edges`` distinct existing nodes
    chosen with probability proportional to their current degree.  The
    repeated-endpoint list makes that choice exact and O(1) per draw.
    """
    import networkx as nx

    n_nodes = check_positive_int(n_nodes, "n_nodes", minimum=2)
    m_edges = check_positive_int(m_edges, "m_edges")
    if m_edges >= n_nodes:
        raise ValueError(f"m_edges={m_edges} must be smaller than n_nodes={n_nodes}")
    gen = as_generator(rng)

    graph = nx.Graph()
    graph.add_nodes_from(range(n_nodes))
    # seed: a star of m_edges+1 nodes so every node has positive degree
    targets = list(range(m_edges))
    repeated: list[int] = []
    source = m_edges
    while source < n_nodes:
        graph.add_edges_from((source, t) for t in targets)
        repeated.extend(targets)
        repeated.extend([source] * m_edges)
        # choose m distinct targets proportional to degree for the next node
        targets = _sample_distinct(repeated, m_edges, gen)
        source += 1
    return graph


def _sample_distinct(repeated: list[int], m: int, gen: np.random.Generator) -> list[int]:
    """Sample *m* distinct entries from the repeated-endpoint list."""
    chosen: set[int] = set()
    n = len(repeated)
    while len(chosen) < m:
        chosen.add(repeated[int(gen.integers(0, n))])
    return list(chosen)


def attachment_shift_for_alpha(alpha: float, m_edges: int = 1) -> float:
    """Attachment shift ``a`` giving asymptotic exponent ``α`` for kernel ``k + a``.

    The shifted-linear-kernel growth process has degree exponent
    ``α = 3 + a/m``; inverting gives ``a = (α − 3)·m``.  Exponents below 3
    therefore need a negative shift, bounded below by ``a > −m`` so the
    kernel stays positive for the minimum degree ``m``.
    """
    alpha = check_in_range(alpha, "alpha", 1.5, 6.0)
    m_edges = check_positive_int(m_edges, "m_edges")
    shift = (alpha - 3.0) * m_edges
    if shift <= -m_edges:
        raise ValueError(
            f"alpha={alpha} is unreachable with m_edges={m_edges}: required shift "
            f"{shift} would make the attachment kernel non-positive"
        )
    return shift


def _choice_without_replacement(p: np.ndarray, size: int, gen: np.random.Generator) -> np.ndarray:
    """``gen.choice(p.size, size, replace=False, p=p)`` minus its argument checks.

    Replays numpy's weighted draw loop step for step: the same
    ``gen.random`` calls, the same ``cumsum`` / normalise / right-side
    ``searchsorted`` arithmetic and the same first-occurrence dedupe.  The
    result and the generator state afterwards are therefore bit-identical to
    the library call.  *p* is consumed: drawn entries are zeroed in place.
    """
    found = np.empty(size, dtype=np.int64)
    n_found = 0
    while n_found < size:
        x = gen.random((size - n_found,))
        if n_found:
            p[found[:n_found]] = 0
        cdf = np.cumsum(p)
        cdf /= cdf[-1]
        new = cdf.searchsorted(x, side="right")
        if new.size > 1:
            _, first = np.unique(new, return_index=True)
            new = new[np.sort(first)]
        found[n_found:n_found + new.size] = new
        n_found += new.size
    return found


def _normalised_kernel(degrees: np.ndarray, shift: float) -> np.ndarray:
    """Attachment probabilities of the current nodes: the clipped ``d + a``, normalised."""
    kernel = degrees + shift
    np.maximum(kernel, 1e-12, out=kernel)
    kernel /= kernel.sum()
    return kernel


def _dense_growth(n_nodes: int, m_edges: int, shift: float, gen: np.random.Generator) -> np.ndarray:
    """Arrival-ordered targets, drawing each step over the whole dense kernel.

    O(n²): every step rebuilds the kernel over all earlier nodes and replays
    ``Generator.choice(replace=False, p=kernel)`` on it.
    """
    degrees = np.zeros(n_nodes, dtype=np.float64)
    targets = np.empty((n_nodes - m_edges, m_edges), dtype=np.int64)
    # seed star: node m_edges attached to nodes 0..m_edges-1
    targets[0] = np.arange(m_edges)
    degrees[:m_edges] = 1.0
    degrees[m_edges] = m_edges
    for source in range(m_edges + 1, n_nodes):
        chosen = _choice_without_replacement(_normalised_kernel(degrees[:source], shift), m_edges, gen)
        targets[source - m_edges] = chosen
        degrees[chosen] += 1.0
        degrees[source] = m_edges
    return targets.ravel()


def _copying_growth(n_nodes: int, shift: float, gen: np.random.Generator) -> np.ndarray:
    """Arrival-ordered targets of single-edge growth with kernel ``d + a``.

    At step ``s`` the nodes ``0..s-1`` are present and ``s - 1`` edges
    drawn.  Node ``i`` has degree ``d_i >= 1``, so its weight is
    ``e_i + c`` with the excess ``e_i = d_i - 1`` and ``c = 1 + a``; the
    excesses sum to ``s - 2``, one unit per earlier step's target, so the
    total is ``W = (s - 2) + s·c``.  One uniform ``x`` per step, scaled to
    ``y = x·W``, picks

    * node ``⌊y / c⌋``, clipped to ``s - 1``, when ``y < s·c``: a uniform
      node, with total probability ``s·c / W``;
    * otherwise the target of step ``2 + ⌊y − s·c⌋``, clipped to the last
      earlier step ``s - 1``: a uniform earlier edge's target, i.e. node
      ``i`` with probability ``e_i / W``.

    The clips only catch rounding at the top of each range.  The copies
    form chains to earlier steps; ``ptr = ptr[ptr]`` halves every chain per
    pass.  The draws are one ``gen.random(n - 2)``, the uniforms
    :func:`_dense_growth` with ``m_edges = 1`` draws one per step, so the
    generator ends in the same state.  The law is the dense kernel's
    except that the dense one clips each weight at ``1e-12``, and so
    differs when ``c < 1e-12``; here ``c`` is used as is.
    """
    c = 1.0 + float(shift)
    s = np.arange(2.0, n_nodes)
    uniform_mass = s * c
    y = gen.random(n_nodes - 2) * ((s - 2.0) + uniform_mass)
    copy = y >= uniform_mass
    # slot k holds the target of step k + 1 (slot 0: the seed edge 1 -> 0);
    # a copying step points at the slot of the step it copies, every other
    # slot at itself
    node = np.where(copy, 0.0, np.minimum(np.floor(y / c), s - 1.0))
    slot = np.where(copy, np.minimum(np.floor(y - uniform_mass), s - 3.0) + 1.0, s - 1.0)
    targets = np.concatenate(([0], node.astype(np.int64)))
    ptr = np.concatenate(([0], slot.astype(np.int64)))
    while True:
        jumped = ptr[ptr]
        if np.array_equal(jumped, ptr):
            return targets[ptr]
        ptr = jumped


def _shifted_growth(
    n_nodes: int,
    m_edges: int,
    alpha: float | None,
    shift: float | None,
    rng: RNGLike,
) -> tuple[np.ndarray, np.ndarray]:
    """Grow the shifted-kernel process; arrival-ordered ``(sources, targets)``."""
    n_nodes = check_positive_int(n_nodes, "n_nodes", minimum=2)
    m_edges = check_positive_int(m_edges, "m_edges")
    if m_edges >= n_nodes:
        raise ValueError(f"m_edges={m_edges} must be smaller than n_nodes={n_nodes}")
    if (alpha is None) == (shift is None):
        raise ValueError("exactly one of alpha or shift must be provided")
    if alpha is not None:
        shift = attachment_shift_for_alpha(alpha, m_edges)
    assert shift is not None
    if shift <= -m_edges:
        raise ValueError(f"shift must exceed -m_edges={-m_edges}, got {shift}")
    gen = as_generator(rng)

    if m_edges == 1:
        targets = _copying_growth(n_nodes, shift, gen)
    else:
        targets = _dense_growth(n_nodes, m_edges, shift, gen)
    sources = np.repeat(np.arange(m_edges, n_nodes, dtype=np.int64), m_edges)
    return sources, targets


def shifted_preferential_attachment_edges(
    n_nodes: int,
    m_edges: int = 1,
    *,
    alpha: float | None = None,
    shift: float | None = None,
    rng: RNGLike = None,
) -> np.ndarray:
    """Shifted-kernel preferential attachment as an ``(m, 2)`` int64 edge array.

    Takes the arguments of :func:`generate_shifted_preferential_attachment`
    and consumes the generator identically.  Rows are ``(older, newer)``
    pairs in lexicographic order, which is the order ``networkx`` lists the
    edges of the equivalent graph.
    """
    sources, targets = _shifted_growth(n_nodes, m_edges, alpha, shift, rng)
    # one sort of packed (target << 32) | source keys orders the rows
    keys = (targets << 32) | sources
    keys.sort()
    return np.column_stack([keys >> 32, keys & 0xFFFFFFFF])


def generate_shifted_preferential_attachment(
    n_nodes: int,
    m_edges: int = 1,
    *,
    alpha: float | None = None,
    shift: float | None = None,
    rng: RNGLike = None,
) -> nx.Graph:
    """Preferential attachment with the shifted kernel ``Π(k) ∝ k + a``.

    Exactly one of *alpha* (target asymptotic exponent, converted through
    :func:`attachment_shift_for_alpha`) or *shift* (the kernel shift ``a``
    itself) must be given.  Each new node draws its ``m_edges`` distinct
    targets with probability proportional to the kernel of the current
    degrees, clipped at ``1e-12`` when ``m_edges > 1``.
    """
    import networkx as nx

    sources, targets = _shifted_growth(n_nodes, m_edges, alpha, shift, rng)
    graph = nx.Graph()
    graph.add_nodes_from(range(n_nodes))
    # arrival order gives every node the adjacency order of the growth itself
    graph.add_edges_from(zip(sources.tolist(), targets.tolist()))
    return graph
