"""Column-selective packet emission keeps the columns it fills bit-identical.

:func:`~repro.scenarios.run.analyze_scenario` asks its
:class:`~repro.scenarios.source.ScenarioTraceSource` for
:data:`~repro.streaming.trace_io.ANALYSIS_COLUMNS` only, which skips the
inter-arrival and size draws at the end of each block.  That is safe only
because those two draws come last in the emitter's draw order and each
block's generator is discarded after its block.  These tests pin it for
every built-in scenario and seeds 0–2, streamed as native blocks, re-cut
with ``chunk_packets=9000``, and with ``block_packets=1500`` (every built-in
cross-fade of 2,000–4,000 packets then spans block boundaries and ends
mid-block): the analysis-column stream must carry the full stream's
``src``/``dst``/``valid`` and zero ``time``/``size``, and the analysis must
equal ``analyze_trace`` of the eagerly generated full trace.

Moving a skipped draw ahead of a kept one (say, the sizes ahead of the
invalid-packet draw) makes the two streams diverge, which these tests catch.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.scenarios import BUILTIN_SCENARIO_NAMES, analyze_scenario, get_scenario
from repro.scenarios.source import ScenarioTraceSource
from repro.streaming.aggregates import QUANTITY_NAMES
from repro.streaming.pipeline import analyze_trace
from repro.streaming.trace_generator import TraceConfig, TrafficSubstrate, emit_packets
from repro.streaming.trace_io import ANALYSIS_COLUMNS

SEEDS = (0, 1, 2)
N_VALID = 5_000
VARIANTS = {
    "native": {},
    "chunk9000": {"chunk_packets": 9_000},
    "block1500": {"block_packets": 1_500},
}
CASES = [
    pytest.param(name, seed, variant, id=f"{name}-seed{seed}-{variant}")
    for name in BUILTIN_SCENARIO_NAMES
    for seed in SEEDS
    for variant in VARIANTS
]


def _stream(name: str, seed: int, variant: str, columns=None) -> np.ndarray:
    source = ScenarioTraceSource(
        get_scenario(name), seed=seed, columns=columns, **VARIANTS[variant]
    )
    return np.concatenate([chunk.packets for chunk in source])


@pytest.mark.parametrize("name, seed, variant", CASES)
def test_analysis_columns_match_full_emission(name, seed, variant):
    full = _stream(name, seed, variant)
    lean = _stream(name, seed, variant, ANALYSIS_COLUMNS)
    assert lean.size == full.size == get_scenario(name).n_packets
    for column in ANALYSIS_COLUMNS:
        assert lean[column].tobytes() == full[column].tobytes(), column
    assert not lean["time"].any() and not lean["size"].any()


@pytest.mark.parametrize("name, seed, variant", CASES)
def test_analyze_scenario_equals_analyze_trace_of_full_trace(name, seed, variant):
    kwargs = VARIANTS[variant]
    run = analyze_scenario(name, N_VALID, seed=seed, keep_windows=False, **kwargs)
    trace = get_scenario(name).generate(seed=seed, block_packets=kwargs.get("block_packets"))
    reference = analyze_trace(trace, N_VALID, keep_windows=False)
    assert run.analysis.n_windows == reference.n_windows > 0
    for quantity in QUANTITY_NAMES:
        mine, theirs = run.analysis.pooled(quantity), reference.pooled(quantity)
        assert mine.values.tobytes() == theirs.values.tobytes()
        assert mine.sigma.tobytes() == theirs.sigma.tobytes()
        assert np.array_equal(mine.bin_edges, theirs.bin_edges)
        assert mine.total == theirs.total


class TestEmitPacketsColumns:
    @staticmethod
    def _emit(columns, **config):
        edges = np.array([[0, 1], [1, 2], [2, 3], [3, 0], [0, 2]], dtype=np.int64)
        substrate = TrafficSubstrate.build(edges, np.full(5, 0.2))
        config = TraceConfig(n_packets=4_000, invalid_fraction=0.2, **config)
        gen = np.random.default_rng(5)
        return emit_packets(4_000, substrate, config, gen, time_offset=3.0, columns=columns)

    @pytest.mark.parametrize(
        "columns",
        [("size",), ("time",), ("src", "size"), ("valid", "time"), ANALYSIS_COLUMNS, ()],
    )
    def test_kept_columns_match_full_emission(self, columns):
        full = self._emit(None)
        part = self._emit(columns)
        for column in full.dtype.names:
            if column in columns:
                assert part[column].tobytes() == full[column].tobytes(), column
            else:
                assert not part[column].any(), column

    def test_undirected_config(self):
        full = self._emit(None, directed=False)
        lean = self._emit(ANALYSIS_COLUMNS, directed=False)
        for column in ANALYSIS_COLUMNS:
            assert lean[column].tobytes() == full[column].tobytes()

    def test_unknown_column_rejected(self):
        with pytest.raises(ValueError, match="unknown trace columns"):
            self._emit(("src", "port"))


def test_source_columns_must_keep_valid():
    with pytest.raises(ValueError, match="'valid'"):
        ScenarioTraceSource(get_scenario("stationary"), seed=0, columns=("src", "dst"))
