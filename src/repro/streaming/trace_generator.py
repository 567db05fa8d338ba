"""Synthetic packet-trace generation.

The paper's data are trunk-line captures from the MAWI/WIDE and CAIDA
observatories; those traces are not redistributable, so the reproduction
replays synthetic traffic from a generative underlying network instead (see
DESIGN.md for the substitution argument).  The generator works in two steps:

1. every underlying edge (source–destination pair) receives a *rate weight*
   drawn from a heavy-tailed law — heavier-tailed weights concentrate more
   of the stream on a few links, reproducing the ``link packets``
   distribution of Figure 3;
2. packets are drawn i.i.d. from the edge set with probability proportional
   to the weights, given monotone timestamps, and optionally mixed with a
   fraction of invalid packets.

Because packets land on edges independently, observing a window of ``N_V``
consecutive packets is (conditionally on the weights) equivalent to
Bernoulli edge sampling of the underlying network — precisely the paper's
observation model, with the window length controlling the effective ``p``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import networkx as nx
import numpy as np

from repro._util.rng import RNGLike, as_generator
from repro._util.validation import check_fraction, check_positive, check_positive_int
from repro.generators.palu_graph import PALUGraph
from repro.streaming.packet import PACKET_DTYPE, PacketTrace

__all__ = [
    "EdgeSampler",
    "TrafficSubstrate",
    "TraceConfig",
    "emit_packets",
    "generate_trace",
    "generate_trace_from_graph",
    "edge_rate_weights",
    "effective_window_p",
]

GraphLike = Union[nx.Graph, PALUGraph, np.ndarray]


@dataclass(frozen=True)
class TraceConfig:
    """Configuration of the synthetic traffic generator.

    Attributes
    ----------
    n_packets:
        Total number of packets to emit (valid + invalid).
    rate_model:
        Distribution of per-edge rate weights: ``"uniform"`` (every edge
        equally likely), ``"zipf"`` (weights ∝ rank^{-rate_exponent} after a
        random edge permutation), or ``"lognormal"``.
    rate_exponent:
        Exponent of the ``"zipf"`` rate model (ignored otherwise).
    lognormal_sigma:
        Shape of the ``"lognormal"`` rate model (ignored otherwise).
    invalid_fraction:
        Fraction of emitted packets flagged invalid (exercises the
        valid-packet windowing logic; the endpoints of invalid packets are
        drawn uniformly from the node range).
    mean_interarrival:
        Mean spacing of the exponential inter-arrival times (seconds).
    directed:
        Emit each packet in a uniformly random direction over the edge
        (default) or always from the lower to the higher node id.
    """

    n_packets: int
    rate_model: str = "uniform"
    rate_exponent: float = 1.2
    lognormal_sigma: float = 1.5
    invalid_fraction: float = 0.0
    mean_interarrival: float = 1e-4
    directed: bool = True

    def __post_init__(self) -> None:
        check_positive_int(self.n_packets, "n_packets")
        if self.rate_model not in ("uniform", "zipf", "lognormal"):
            raise ValueError(
                f"unknown rate_model {self.rate_model!r}; expected 'uniform', 'zipf', or 'lognormal'"
            )
        check_positive(self.rate_exponent, "rate_exponent")
        check_positive(self.lognormal_sigma, "lognormal_sigma")
        check_fraction(self.invalid_fraction, "invalid_fraction")
        check_positive(self.mean_interarrival, "mean_interarrival")


def _edges_of(graph: GraphLike) -> np.ndarray:
    if isinstance(graph, PALUGraph):
        return graph.edges_array()
    if isinstance(graph, nx.Graph):
        if graph.number_of_edges() == 0:
            return np.zeros((0, 2), dtype=np.int64)
        return np.asarray(list(graph.edges()), dtype=np.int64)
    edges = np.asarray(graph, dtype=np.int64)
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise ValueError("edges must be an (m, 2) array of node pairs")
    return edges


def edge_rate_weights(n_edges: int, config: TraceConfig, gen: np.random.Generator) -> np.ndarray:
    """Normalised per-edge rate weights under *config*'s rate model.

    One draw per (graph, config) pair — the paper's stationarity assumption
    in miniature: packets are i.i.d. given these weights.  The scenario
    subsystem (:mod:`repro.scenarios`) re-draws them per *phase*, which is
    exactly how it breaks stationarity while reusing this generator.
    """
    if config.rate_model == "uniform":
        return np.full(n_edges, 1.0 / n_edges)
    if config.rate_model == "zipf":
        ranks = gen.permutation(n_edges) + 1.0
        weights = ranks ** (-config.rate_exponent)
    else:  # lognormal
        weights = gen.lognormal(mean=0.0, sigma=config.lognormal_sigma, size=n_edges)
    total = weights.sum()
    if total <= 0:
        raise RuntimeError("edge rate weights summed to zero")
    return weights / total


#: Walk steps a draw takes through the cutpoint table before the rest of
#: the block falls back to a binary search (see :meth:`EdgeSampler.draw`).
_WALK_STEPS = 2


class EdgeSampler:
    """Exact, set-up-once replica of ``gen.choice(m, n, replace=True, p=weights)``.

    ``Generator.choice`` re-validates *p*, rebuilds its CDF and binary-searches
    every key on each call.  The sampler does the first two once and replaces
    the search by Chen & Asau's cutpoint ("guide") table: with ``K`` a power
    of two ≥ ``4m`` buckets, ``guide[j]`` is the first index whose CDF value
    exceeds ``j / K``.  A draw ``u = gen.random(n)`` starts at
    ``guide[floor(u * K)]`` and steps forward while ``cdf[idx] <= u``.

    The result is exactly ``cdf.searchsorted(u, "right")``, which is what
    ``choice`` computes: ``u * K`` and ``cdf * K`` are exact because ``K``
    is a power of two, so the guide never starts past the answer, and the
    walk stops because ``cdf[-1] == 1.0 > u``.  Draws that are still short after
    a couple of steps finish with the same ``searchsorted`` on their own
    keys.  The draws, and the generator state afterwards, are therefore
    bit-identical to ``choice``'s.
    """

    def __init__(self, weights: np.ndarray) -> None:
        p = np.asarray(weights)
        # the checks (and messages) Generator.choice applies to p; choice
        # sums with Kahan summation, np.sum pairwise, which can only differ
        # for weights within rounding of the sqrt(eps) tolerance
        atol = np.sqrt(np.finfo(np.float64).eps)
        if np.issubdtype(p.dtype, np.floating):
            atol = max(atol, np.sqrt(np.finfo(p.dtype).eps))
        p = np.ascontiguousarray(p, dtype=np.float64)
        if p.ndim != 1:
            raise ValueError("p must be 1-dimensional")
        if p.size == 0:
            raise ValueError("a must be a positive integer unless no samples are taken")
        p_sum = p.sum()
        if np.isnan(p_sum):
            raise ValueError("Probabilities contain NaN")
        if np.logical_or.reduce(p < 0):
            raise ValueError("Probabilities are not non-negative")
        if abs(p_sum - 1.0) > atol:
            raise ValueError("Probabilities do not sum to 1")
        cdf = p.cumsum()
        cdf /= cdf[-1]
        self._cdf = cdf
        self._buckets = buckets = 1 << (4 * p.size - 1).bit_length()
        # guide[j] = cdf.searchsorted(j / K, "right"), the first i with
        # ceil(cdf[i] * K) > j: index i fills buckets ceil(cdf[i-1] * K)
        # up to ceil(cdf[i] * K), and the last ceiling is K
        ceilings = np.ceil(cdf * buckets).astype(np.intp)
        self._guide = np.repeat(np.arange(p.size), np.diff(ceilings, prepend=0))

    @property
    def n_edges(self) -> int:
        """Population size ``m`` the sampler draws indices from."""
        return int(self._cdf.size)

    def draw(self, gen: np.random.Generator, n: int) -> np.ndarray:
        """*n* indices in ``[0, m)``, as ``gen.choice(m, n, p=weights)`` returns them."""
        u = gen.random(n)
        idx = self._guide[(u * self._buckets).astype(np.intp)]
        cdf = self._cdf
        late = np.flatnonzero(cdf[idx] <= u)
        for _ in range(_WALK_STEPS):
            if not late.size:
                break
            idx[late] += 1
            late = late[cdf[idx[late]] <= u[late]]
        if late.size:
            idx[late] = cdf.searchsorted(u[late], "right")
        return idx


@dataclass(frozen=True)
class TrafficSubstrate:
    """An edge set with its rate sampler: what :func:`emit_packets` draws from.

    Built once per (graph, weights) pair, so per-block emission does no
    set-up work: ``endpoints`` is the edge array flattened to
    ``[u0, v0, u1, v1, ...]`` and ``n_nodes`` bounds the node ids.
    """

    endpoints: np.ndarray
    sampler: EdgeSampler
    n_nodes: int

    @classmethod
    def build(cls, edges: np.ndarray, weights: np.ndarray) -> "TrafficSubstrate":
        """Substrate over an ``(m, 2)`` edge array with rate *weights*."""
        endpoints = np.ascontiguousarray(edges, dtype=np.int64).ravel()
        return cls(endpoints, EdgeSampler(weights), int(endpoints.max()) + 1)


def emit_packets(
    n: int,
    substrate: TrafficSubstrate,
    config: TraceConfig,
    gen: np.random.Generator,
    *,
    time_offset: float = 0.0,
    fade_from: TrafficSubstrate | None = None,
    p_old: np.ndarray | None = None,
) -> np.ndarray:
    """Draw *n* packet records over *substrate*: the one packet emitter.

    The draw order is fixed (edge choice, optional fade mix, direction flip,
    invalid injection, inter-arrivals, sizes) — part of the determinism
    contract, so reordering it is a format break for golden tests.  With
    *fade_from*, each packet falls back to that substrate with probability
    *p_old* (a per-packet array).  Timestamps start after *time_offset*.
    """
    chosen = substrate.sampler.draw(gen, n)
    endpoints = substrate.endpoints
    n_nodes = substrate.n_nodes
    if fade_from is not None:
        use_old = gen.random(n) < p_old
        n_old = int(use_old.sum())
        if n_old:
            # index the old edges past the new ones in one joined table
            chosen[use_old] = substrate.sampler.n_edges + fade_from.sampler.draw(gen, n_old)
            endpoints = np.concatenate([endpoints, fade_from.endpoints])
        n_nodes = max(n_nodes, fade_from.n_nodes)
    # endpoint slot of each packet's source: 2e, or 2e + 1 when flipped
    slot = 2 * chosen
    if config.directed:
        slot += gen.random(n) < 0.5
    src = endpoints[slot]
    dst = endpoints[slot ^ 1]
    valid = True
    if config.invalid_fraction > 0:
        invalid = gen.random(n) < config.invalid_fraction
        valid = ~invalid
        # invalid packets get arbitrary endpoints outside the traffic pattern
        src[invalid] = gen.integers(0, n_nodes, size=int(invalid.sum()))
        dst[invalid] = gen.integers(0, n_nodes, size=int(invalid.sum()))
    records = np.empty(n, dtype=PACKET_DTYPE)
    records["src"] = src
    records["dst"] = dst
    records["time"] = time_offset + np.cumsum(gen.exponential(config.mean_interarrival, size=n))
    records["size"] = gen.integers(64, 1500, size=n, dtype=np.int32)
    records["valid"] = valid
    return records


def generate_trace_from_graph(
    graph: GraphLike,
    config: TraceConfig,
    *,
    rng: RNGLike = None,
) -> PacketTrace:
    """Emit a synthetic packet trace over the edges of *graph*.

    See :class:`TraceConfig` for the generation knobs.  The returned trace is
    time-ordered with exponential inter-arrival times.
    """
    edges = _edges_of(graph)
    if edges.shape[0] == 0:
        raise ValueError("cannot generate traffic over a graph with no edges")
    gen = as_generator(rng)
    substrate = TrafficSubstrate.build(edges, edge_rate_weights(edges.shape[0], config, gen))
    return PacketTrace(emit_packets(config.n_packets, substrate, config, gen))


def generate_trace(
    graph: GraphLike,
    n_packets: int,
    *,
    rate_model: str = "uniform",
    rate_exponent: float = 1.2,
    invalid_fraction: float = 0.0,
    rng: RNGLike = None,
    seed: RNGLike = None,
) -> PacketTrace:
    """Convenience wrapper around :func:`generate_trace_from_graph`.

    Parameters mirror the most commonly used :class:`TraceConfig` fields.
    """
    if seed is not None and rng is None:
        rng = seed
    config = TraceConfig(
        n_packets=n_packets,
        rate_model=rate_model,
        rate_exponent=rate_exponent,
        invalid_fraction=invalid_fraction,
    )
    return generate_trace_from_graph(graph, config, rng=rng)


def effective_window_p(graph: GraphLike, n_valid: int, *, rate_model: str = "uniform") -> float:
    """Approximate edge-sampling probability ``p`` induced by a window.

    For the uniform rate model, a window of ``N_V`` valid packets over ``m``
    underlying edges sees each edge with probability
    ``p = 1 − (1 − 1/m)^{N_V} ≈ 1 − exp(−N_V/m)``.  Heavy-tailed rate models
    concentrate packets, so the same window observes *fewer* distinct edges;
    the uniform value is still the right scale for choosing ``N_V`` in the
    experiments and is exact for the default generator configuration.
    """
    edges = _edges_of(graph)
    m = edges.shape[0]
    if m == 0:
        return 0.0
    n_valid = check_positive_int(n_valid, "n_valid")
    if rate_model != "uniform":
        raise ValueError("effective_window_p currently supports only the uniform rate model")
    return float(-np.expm1(-n_valid / m))
