"""Seeded workload inputs: the only thing the program under test receives.

Every input is a pure function of the workload seed and the size preset,
so two runs with the same seed feed the program byte-identical inputs
(``input_digest`` proves it).  The stored-trace generator below is the
benchmark's own numpy code, not the program's generators: a change to
``repro.generators`` must not silently change what the trace workloads
read.  The campaign and service workloads deliberately *do* go through the
program's scenario synthesis, because that synthesis is what they measure.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: Seed that later performance claims must also hold on; never use it while
#: developing a change.
HELD_OUT_SEED = 9973

#: Bump when the stored-trace generator below changes its output.
TRACE_GENERATOR_VERSION = 1

DETECTORS = ("ewma", "cusum", "page-hinkley")


@dataclass(frozen=True)
class Sizes:
    """Input sizes of one preset (``full`` for measurement, ``smoke`` for tests)."""

    # trace workloads: a stored v2 npy trace over a PALU-shaped graph
    trace_nodes: int
    trace_packets: int
    trace_nv: int
    trace_shard_packets: int
    # campaign-cold: the six built-in scenarios x this many seeds
    campaign_seeds: int
    campaign_nv: int
    # service-ingest: one scaled-up scenario stream per job, NDJSON batches
    service_scale: int
    service_nv: int
    service_batch_packets: int
    service_checkpoint_every: int
    status_rate_hz: float


SIZES = {
    "full": Sizes(
        trace_nodes=60_000,
        trace_packets=8_000_000,
        trace_nv=100_000,
        trace_shard_packets=250_000,
        campaign_seeds=12,
        campaign_nv=5_000,
        service_scale=8,
        service_nv=10_000,
        service_batch_packets=50_000,
        service_checkpoint_every=5,
        status_rate_hz=50.0,
    ),
    "smoke": Sizes(
        trace_nodes=3_000,
        trace_packets=120_000,
        trace_nv=10_000,
        trace_shard_packets=25_000,
        campaign_seeds=1,
        campaign_nv=5_000,
        service_scale=1,
        service_nv=5_000,
        service_batch_packets=20_000,
        service_checkpoint_every=2,
        status_rate_hz=50.0,
    ),
}


# --------------------------------------------------------------------------
# stored trace (trace-analyze)
# --------------------------------------------------------------------------


def palu_edges(n_nodes: int, rng: np.random.Generator, *, alpha: float = 2.0,
               core: float = 0.55, leaves: float = 0.25, lam: float = 2.0) -> np.ndarray:
    """A PALU-shaped edge array: power-law core, preferential leaves, Poisson stars.

    Multi-edges and self-loops of the configuration-model core are removed
    with a packed-key ``np.unique``; the result is sorted, hence
    deterministic for a given generator state.
    """
    n_core = int(round(core * n_nodes))
    n_leaves = int(round(leaves * n_nodes))
    n_centres = n_nodes - n_core - n_leaves
    degrees = np.minimum(rng.zipf(alpha, size=n_core), n_core - 1)
    stubs = np.repeat(np.arange(n_core, dtype=np.int64), degrees)
    rng.shuffle(stubs)
    stubs = stubs[: stubs.size // 2 * 2].reshape(-1, 2)
    stubs = stubs[stubs[:, 0] != stubs[:, 1]]
    lo, hi = stubs.min(axis=1), stubs.max(axis=1)
    core_keys = np.unique((lo << 32) | hi)
    core_edges = np.stack([core_keys >> 32, core_keys & 0xFFFFFFFF], axis=1)

    weights = np.bincount(core_edges.ravel(), minlength=n_core) + 1.0
    anchors = rng.choice(n_core, size=n_leaves, p=weights / weights.sum())
    leaf_edges = np.stack([np.arange(n_core, n_core + n_leaves), anchors], axis=1)

    spokes = rng.poisson(lam, size=n_centres)
    centres = np.repeat(np.arange(n_centres, dtype=np.int64), spokes) + n_core + n_leaves
    star_leaves = np.arange(centres.size, dtype=np.int64) + n_nodes
    star_edges = np.stack([centres, star_leaves], axis=1)
    return np.concatenate([core_edges, leaf_edges, star_edges]).astype(np.int64)


def trace_chunks(seed: int, sizes: Sizes):
    """Yield the stored trace's packet records in shard-sized chunks.

    Zipf rates over a random edge ranking (exponent 1.2), random direction,
    5% invalid packets with uniform random endpoints, exponential
    inter-arrivals — the shape of the program's own trace generator.
    """
    from repro.streaming.packet import PACKET_DTYPE, PacketTrace

    root = np.random.SeedSequence([TRACE_GENERATOR_VERSION, seed])
    graph_ss, weights_ss, packets_ss = root.spawn(3)
    edges = palu_edges(sizes.trace_nodes, np.random.default_rng(graph_ss))
    ranks = np.random.default_rng(weights_ss).permutation(edges.shape[0]) + 1.0
    cdf = np.cumsum(ranks ** -1.2)
    cdf /= cdf[-1]
    n_ids = int(edges.max()) + 1
    rng = np.random.default_rng(packets_ss)
    clock = 0.0
    for start in range(0, sizes.trace_packets, sizes.trace_shard_packets):
        n = min(sizes.trace_shard_packets, sizes.trace_packets - start)
        chosen = np.minimum(np.searchsorted(cdf, rng.random(n), side="right"), edges.shape[0] - 1)
        flip = rng.random(n) < 0.5
        src = np.where(flip, edges[chosen, 1], edges[chosen, 0])
        dst = np.where(flip, edges[chosen, 0], edges[chosen, 1])
        invalid = rng.random(n) < 0.05
        src[invalid] = rng.integers(0, n_ids, size=int(invalid.sum()))
        dst[invalid] = rng.integers(0, n_ids, size=int(invalid.sum()))
        records = np.empty(n, dtype=PACKET_DTYPE)
        records["src"] = src
        records["dst"] = dst
        records["time"] = clock + np.cumsum(rng.exponential(1e-5, size=n))
        records["size"] = rng.integers(64, 1500, size=n, dtype=np.int32)
        records["valid"] = ~invalid
        clock = float(records["time"][-1])
        yield PacketTrace(records)


def ensure_trace(work: Path, seed: int, sizes: Sizes, preset: str) -> tuple[Path, str]:
    """The stored trace for *seed*: ``(path, input_digest)``.

    Built once per seed and cached under *work*; traces of other seeds are
    removed first so the cache never holds more than one full-size trace.
    """
    from repro.streaming.trace_io import save_trace_sharded

    name = f"trace-{preset}-v{TRACE_GENERATOR_VERSION}-{seed}"
    path = work / name
    meta_path = work / f"{name}.json"
    if path.is_dir() and meta_path.is_file():
        return path, json.loads(meta_path.read_text())["digest"]
    for stale in work.glob("trace-*"):
        shutil.rmtree(stale) if stale.is_dir() else stale.unlink()
    digest = hashlib.sha256()

    def hashed():
        for chunk in trace_chunks(seed, sizes):
            digest.update(chunk.packets.tobytes())
            yield chunk

    save_trace_sharded(hashed(), path, shard_packets=sizes.trace_shard_packets, layout="npy")
    meta_path.write_text(json.dumps({"digest": digest.hexdigest()}))
    # write the trace back now, not while a measurement is running
    os.sync()
    return path, digest.hexdigest()


# --------------------------------------------------------------------------
# campaign-cold
# --------------------------------------------------------------------------


def campaign_seeds(seed: int, sizes: Sizes) -> list[int]:
    """Scenario seeds of the campaign grid for one workload seed."""
    return [seed * 1000 + k for k in range(sizes.campaign_seeds)]


def campaign(seeds, n_valid: int):
    """The campaign-cold grid: every built-in scenario x *seeds*, all detectors."""
    from repro.campaigns import Campaign
    from repro.scenarios.builtin import BUILTIN_SCENARIO_NAMES

    return Campaign(
        name="bench", scenarios=BUILTIN_SCENARIO_NAMES, seeds=tuple(seeds),
        n_valids=(n_valid,), detectors=DETECTORS,
    )


def campaign_digest(seed: int, sizes: Sizes) -> str:
    """Digest of the campaign grid (its inputs are the specs, not packets)."""
    spec = {"scenarios": "builtin", "seeds": campaign_seeds(seed, sizes),
            "n_valid": sizes.campaign_nv, "detectors": DETECTORS}
    return hashlib.sha256(json.dumps(spec, sort_keys=True).encode()).hexdigest()


# --------------------------------------------------------------------------
# service-ingest
# --------------------------------------------------------------------------


def service_scenario(scale: int):
    """The built-in ``flash-crowd`` scenario with packets and graphs scaled up."""
    from repro.scenarios import Phase, Scenario, get_scenario

    base = get_scenario("flash-crowd")
    phases = []
    for phase in base.phases:
        params = dict(phase.graph_params)
        for knob in ("n_nodes", "n_stars"):
            if knob in params:
                params[knob] = int(params[knob]) * min(scale, 4)
        phases.append(Phase(
            phase.graph, phase.n_packets * scale, params,
            rate_model=phase.rate_model, rate_exponent=phase.rate_exponent,
            lognormal_sigma=phase.lognormal_sigma, invalid_fraction=phase.invalid_fraction,
            mean_interarrival=phase.mean_interarrival,
        ))
    return Scenario(
        name=f"bench-flash-crowd-x{scale}", phases=tuple(phases),
        crossfade_packets=base.crossfade_packets * scale,
        description="flash-crowd with packet budgets and graph sizes scaled up",
    )


def service_stream(seed: int, sizes: Sizes) -> tuple[list[bytes], list[int], str]:
    """Pre-encoded NDJSON ingest bodies of one scenario pass.

    Returns ``(bodies, packets_per_body, input_digest)``.  The encoding is
    the one ``repro jobs feed`` sends: one JSON object per batch carrying
    all five packet columns.
    """
    from repro.scenarios.source import ScenarioTraceSource

    source = ScenarioTraceSource(
        service_scenario(sizes.service_scale), seed=seed,
        chunk_packets=sizes.service_batch_packets,
    )
    bodies = []
    counts = []
    digest = hashlib.sha256()
    for chunk in source:
        packets = chunk.packets
        line = json.dumps({
            "src": packets["src"].tolist(),
            "dst": packets["dst"].tolist(),
            "time": packets["time"].tolist(),
            "size": packets["size"].tolist(),
            "valid": packets["valid"].tolist(),
        })
        body = (line + "\n").encode("utf-8")
        digest.update(body)
        bodies.append(body)
        counts.append(chunk.n_packets)
    return bodies, counts, digest.hexdigest()


def job_config(name: str, sizes: Sizes) -> dict:
    """The service job: all five quantities, all three detectors."""
    return {
        "version": 1,
        "name": name,
        "window": {"n_valid": sizes.service_nv},
        "detection": {"detectors": list(DETECTORS), "quantity": "source_fanout"},
    }
