"""Property-based tests (hypothesis) of the scenario layer's invariants.

Three invariants hold for *any* registered scenario, not just the built-in
catalogue, so they are tested over randomly drawn scenarios:

1. **Budget conservation** — the emitted trace holds exactly the sum of the
   phase packet budgets, regardless of phases, cross-fade, or chunking.
2. **Chunking invariance** — the chunk stream concatenates to the identical
   trace eager generation produces for the same seed, for every chunk size
   (chunks are a pure re-cut of the generation, never part of its identity).
3. **Attribution partition** — phase attribution assigns every analysis
   window to exactly one phase, in stream order (monotone non-decreasing),
   covering all windows.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.scenarios import Phase, Scenario, ScenarioTraceSource
from repro.analysis.phases import PhaseSegmentedAnalyzer
from repro.streaming.pipeline import StreamAnalyzer, analyze_window
from repro.streaming.window import PushWindower

# each example generates and windows full scenario traces — deselected by `pytest -m "not slow"` (fast local loop)
pytestmark = pytest.mark.slow


# deliberately tiny substrates: properties are structural, not statistical
_FAMILIES = st.sampled_from(
    [
        ("erdos-renyi", {"n_nodes": 120, "p": 0.08}),
        ("poisson-stars", {"n_stars": 60, "lam": 3.0}),
        ("configuration", {"n_nodes": 150, "alpha": 2.2, "dmax": 50}),
    ]
)


@st.composite
def phases(draw) -> Phase:
    family, params = draw(_FAMILIES)
    return Phase(
        family,
        n_packets=draw(st.integers(min_value=300, max_value=2_500)),
        graph_params=params,
        rate_model=draw(st.sampled_from(["uniform", "zipf", "lognormal"])),
        invalid_fraction=draw(st.sampled_from([0.0, 0.0, 0.15])),
    )


@st.composite
def scenarios(draw) -> Scenario:
    phase_list = draw(st.lists(phases(), min_size=1, max_size=3))
    shortest = min(p.n_packets for p in phase_list)
    fade = draw(st.integers(min_value=0, max_value=shortest)) if len(phase_list) > 1 else 0
    return Scenario(name="prop", phases=tuple(phase_list), crossfade_packets=fade)


# example counts and deadlines are governed by the dev/ci profiles registered
# in conftest.py — do NOT pin max_examples here, it would override the
# --hypothesis-profile=ci selection and silently shrink the CI search


class TestBudgetConservation:
    @given(scenario=scenarios(), seed=st.integers(min_value=0, max_value=2**31))
    def test_phases_sum_to_requested_budget(self, scenario, seed):
        source = ScenarioTraceSource(scenario, seed=seed)
        chunks = list(source)
        assert sum(c.n_packets for c in chunks) == scenario.n_packets
        assert scenario.n_packets == sum(p.n_packets for p in scenario.phases)
        # the per-phase valid tally never exceeds the phase budgets
        assert np.all(source.valid_emitted_per_phase
                      <= [p.n_packets for p in scenario.phases])
        boundaries = scenario.phase_packet_boundaries()
        assert boundaries[-1] == scenario.n_packets

    @given(scenario=scenarios(), seed=st.integers(min_value=0, max_value=2**31),
           block=st.integers(min_value=128, max_value=4_096))
    def test_budget_independent_of_block_size(self, scenario, seed, block):
        trace = scenario.generate(seed=seed, block_packets=block)
        assert trace.n_packets == scenario.n_packets


class TestChunkingInvariance:
    @given(
        scenario=scenarios(),
        seed=st.integers(min_value=0, max_value=2**31),
        chunk_packets=st.integers(min_value=1, max_value=3_000),
    )
    def test_chunks_concatenate_to_eager_trace(self, scenario, seed, chunk_packets):
        eager = scenario.generate(seed=seed)
        chunks = list(ScenarioTraceSource(scenario, seed=seed, chunk_packets=chunk_packets))
        assert all(c.n_packets == chunk_packets for c in chunks[:-1])
        concatenated = np.concatenate([c.packets for c in chunks])
        assert np.array_equal(concatenated, eager.packets)

    @given(scenario=scenarios(), seed=st.integers(min_value=0, max_value=2**31))
    def test_same_seed_reproduces_identical_trace(self, scenario, seed):
        a = scenario.generate(seed=seed)
        b = scenario.generate(seed=seed)
        assert np.array_equal(a.packets, b.packets)


class TestAttributionPartition:
    @given(
        scenario=scenarios(),
        seed=st.integers(min_value=0, max_value=2**31),
        n_valid=st.integers(min_value=50, max_value=600),
    )
    def test_every_window_in_exactly_one_phase(self, scenario, seed, n_valid):
        source = ScenarioTraceSource(scenario, seed=seed, chunk_packets=512)
        windower = PushWindower(n_valid)
        analyzer = StreamAnalyzer(n_valid, ("source_fanout",))
        segmenter = PhaseSegmentedAnalyzer(
            n_valid, scenario.n_phases, source.phase_of_valid_index, ("source_fanout",)
        )
        n_windows = 0
        for window in (w for chunk in source for w in windower.push(chunk)):
            result = analyze_window(window)
            analyzer.update(result)
            segmenter.update(result)
            n_windows += 1
        seg = segmenter.result()
        # a partition: one phase per window, every window covered...
        assert seg.window_phase.size == n_windows
        assert sum(seg.windows_in_phase(p) for p in range(seg.n_phases)) == n_windows
        assert np.all((seg.window_phase >= 0) & (seg.window_phase < scenario.n_phases))
        # ...in stream order, so attribution is monotone non-decreasing
        assert np.all(np.diff(seg.window_phase) >= 0)
        # and the occupied phases' pooled distributions are all retrievable
        for phase in seg.occupied_phases():
            pooled = seg.pooled(phase, "source_fanout")
            assert pooled.total > 0
