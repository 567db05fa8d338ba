"""Lazy chunked trace emission for scenarios.

:class:`ScenarioTraceSource` turns a :class:`~repro.scenarios.scenario.Scenario`
into an iterator of :class:`~repro.streaming.packet.PacketTrace` chunks — the
same chunk-stream shape :func:`repro.streaming.trace_io.iter_trace_chunks`
produces — so arbitrarily long scenarios flow straight through
:func:`repro.streaming.pipeline.analyze_trace`'s windowing and execution
backends without the trace ever being materialized.

Determinism contract
--------------------
Generation is organised in fixed *blocks* of ``block_packets`` packets whose
boundaries and RNG streams depend only on ``(scenario, seed, block_packets)``:
the root :class:`numpy.random.SeedSequence` spawns one child per phase, and
each phase spawns one generator for its graph, one for its rate weights, and
one per block.  A requested ``chunk_packets`` merely *re-cuts* the block
stream (:func:`repro.streaming.trace_io.rechunk`), so for a fixed seed the
concatenation of the chunks is bit-identical for every chunk size — and
identical to :meth:`Scenario.generate`'s eager trace.  That invariance is
what the property harness pins down (``tests/test_scenarios_properties.py``).

Memory is ``O(block_packets + chunk_packets)`` plus one phase's graph: only
the current block, the current phase's (edges, weights), and — while a
cross-fade is in progress — the previous phase's, are alive at once.

Downstream, :func:`repro.scenarios.run.analyze_scenario` windows this chunk
stream and moves the windows through its execution backend in *batches*
(``batch_windows``).  Batching — like ``chunk_packets`` — is pure execution
plumbing: blocks, and therefore the emitted packets, are untouched by it,
so every (backend, chunking, batching) combination replays the identical
trace and the per-phase valid tally stays ahead of any window a consumer
can observe.
"""

from __future__ import annotations

from typing import Iterator, Union

import numpy as np

from repro._util.validation import check_positive_int
from repro.scenarios.families import build_family_edges
from repro.scenarios.scenario import Scenario
from repro.streaming.packet import PacketTrace
from repro.streaming.trace_generator import (
    TraceConfig,
    TrafficSubstrate,
    edge_rate_weights,
    emit_packets,
)
from repro.streaming.trace_io import rechunk

__all__ = ["DEFAULT_BLOCK_PACKETS", "ScenarioTraceSource"]

#: Internal generation block size.  Fixed (not derived from the caller's
#: chunk size) so that chunking never changes the generated packets.
DEFAULT_BLOCK_PACKETS = 65_536

SeedLike = Union[None, int, np.random.SeedSequence]


class ScenarioTraceSource:
    """Iterable of trace chunks realising one scenario under one seed.

    Iterating yields consecutive :class:`PacketTrace` chunks (of
    ``chunk_packets`` packets each when given, else native generation
    blocks).  The source also keeps the running per-phase *valid*-packet
    tally that phase attribution needs
    (:meth:`phase_of_valid_index`) — because chunks are always produced
    before any window covering them is emitted downstream, the tally is
    complete for every packet a consumer has seen.

    A source is single-use (like any chunk iterator); build a new one to
    replay the identical trace.
    """

    def __init__(
        self,
        scenario: Scenario,
        *,
        seed: SeedLike = None,
        chunk_packets: int | None = None,
        block_packets: int = DEFAULT_BLOCK_PACKETS,
    ) -> None:
        if not isinstance(scenario, Scenario):
            raise TypeError(f"scenario must be a Scenario, got {type(scenario).__name__}")
        self.scenario = scenario
        self.block_packets = check_positive_int(block_packets, "block_packets")
        self.chunk_packets = (
            None if chunk_packets is None else check_positive_int(chunk_packets, "chunk_packets")
        )
        self._seed_sequence = (
            seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
        )
        self._valid_per_phase = np.zeros(scenario.n_phases, dtype=np.int64)
        self._started = False

    @property
    def n_packets(self) -> int:
        """Total packets this source will emit (the scenario's budget)."""
        return self.scenario.n_packets

    @property
    def valid_emitted_per_phase(self) -> np.ndarray:
        """Valid packets emitted so far, per phase (a copy)."""
        return self._valid_per_phase.copy()

    def phase_of_valid_index(self, index: int) -> int:
        """Phase owning the *index*-th valid packet emitted so far.

        Only meaningful for indices the source has already emitted past —
        which is every index a downstream window can refer to, since chunks
        are produced ahead of the windows cut from them.
        """
        if index < 0:
            raise ValueError(f"valid-packet index must be >= 0, got {index}")
        boundaries = np.cumsum(self._valid_per_phase)
        if index >= boundaries[-1]:
            raise ValueError(
                f"valid-packet index {index} not yet emitted ({boundaries[-1]} so far)"
            )
        return int(np.searchsorted(boundaries, index, side="right"))

    def __iter__(self) -> Iterator[PacketTrace]:
        if self._started:
            raise RuntimeError("ScenarioTraceSource is single-use; build a new one to replay")
        self._started = True
        blocks = self._iter_blocks()
        if self.chunk_packets is None:
            return blocks
        return rechunk(blocks, self.chunk_packets)

    def _phase_substrate(self, index: int, phase_ss: np.random.SeedSequence) -> tuple:
        """Realise phase *index*: its traffic substrate and block seeds."""
        phase = self.scenario.phases[index]
        config = self.scenario.phase_configs[index]
        n_blocks = -(-phase.n_packets // self.block_packets)
        graph_ss, weights_ss, *block_seeds = phase_ss.spawn(2 + n_blocks)
        edges = build_family_edges(phase.graph, phase.graph_params, np.random.default_rng(graph_ss))
        weights = edge_rate_weights(edges.shape[0], config, np.random.default_rng(weights_ss))
        return TrafficSubstrate.build(edges, weights), block_seeds

    def _iter_blocks(self) -> Iterator[PacketTrace]:
        scenario = self.scenario
        phase_sequences = self._seed_sequence.spawn(scenario.n_phases)
        fade = scenario.crossfade_packets
        time_offset = 0.0
        previous: TrafficSubstrate | None = None
        for index in range(scenario.n_phases):
            substrate, block_seeds = self._phase_substrate(index, phase_sequences[index])
            config = scenario.phase_configs[index]
            budget = scenario.phases[index].n_packets
            emitted = 0
            for block_ss in block_seeds:
                n = min(self.block_packets, budget - emitted)
                fade_from = None
                p_old = None
                if previous is not None and fade and emitted < fade:
                    # linear ramp over the fade region at the head of this
                    # phase: packet j (0-based) keeps the old substrate with
                    # probability 1 - (j + 1) / (fade + 1)
                    j = emitted + np.arange(n, dtype=np.float64)
                    p_old = np.clip(1.0 - (j + 1.0) / (fade + 1.0), 0.0, None)
                    fade_from = previous
                records = emit_packets(
                    n,
                    substrate,
                    config,
                    np.random.default_rng(block_ss),
                    time_offset=time_offset,
                    fade_from=fade_from,
                    p_old=p_old,
                )
                time_offset = float(records["time"][-1])
                emitted += n
                self._valid_per_phase[index] += int(np.count_nonzero(records["valid"]))
                yield PacketTrace(records)
            previous = substrate if fade else None
