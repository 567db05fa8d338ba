"""The packed window fold against a per-quantity reference fold.

:class:`~repro.streaming.pipeline.StreamAnalyzer` and
:class:`~repro.analysis.phases.PhaseSegmentedAnalyzer` hold one stacked
Welford state (quantities × bins) and fold each window's packed
:class:`~repro.analysis.histogram.HistogramBlock` with one pooling
``bincount``.  The reference here folds the same windows one quantity at a
time, the way the engine used to: :func:`pool_differential_cumulative` per
histogram, one :class:`StreamingMoments` per quantity, and chained
:meth:`DegreeHistogram.merge` calls.  Every product must agree byte for
byte, and a snapshot taken mid-stream must keep the per-quantity layout and
continue the fold bit-identically.
"""

from __future__ import annotations

import pickle

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.histogram import DegreeHistogram
from repro.analysis.moments import StreamingMoments
from repro.analysis.phases import PhaseSegmentedAnalyzer
from repro.analysis.pooling import pool_block, pool_differential_cumulative
from repro.streaming.aggregates import QUANTITY_NAMES
from repro.streaming.packet import PacketTrace
from repro.streaming.pipeline import StreamAnalyzer, analyze_window, analyze_window_sketch
from repro.streaming.sketch import SketchConfig

N_VALID = 400
TINY_SKETCH = SketchConfig(epsilon=0.05, delta=0.3, hll_p=4, spread_rows=8, spread_cols=8)


@st.composite
def windows(draw):
    """A window of up to N_VALID packets: tiny ones that force dmax 1, or skewed ones.

    The skewed windows (Zipf ids) spread each quantity over many degrees,
    so a pooled bin sums several terms and a changed summation order shows.
    """
    if draw(st.booleans()):
        n = draw(st.sampled_from([0, 1, 2]) | st.integers(0, 40))
        high = draw(st.sampled_from([0, 1, 3, 200, 2**32 - 1]))
        ids = st.integers(0, high)
        src = draw(st.lists(ids, min_size=n, max_size=n))
        dst = draw(st.lists(ids, min_size=n, max_size=n))
        valid = draw(st.lists(st.booleans(), min_size=n, max_size=n) | st.just([True] * n))
        return PacketTrace.from_arrays(src, dst, valid=valid)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, N_VALID))
    src, dst = rng.zipf(1.6, (2, n)) % draw(st.sampled_from([50, 500]))
    return PacketTrace.from_arrays(src, dst, valid=rng.random(n) < 0.9)


@st.composite
def streams(draw):
    quantities = draw(st.permutations(QUANTITY_NAMES))
    quantities = tuple(quantities[: draw(st.integers(1, len(QUANTITY_NAMES)))])
    mode = draw(st.sampled_from(["exact", "sketch"]))
    packets = draw(st.lists(windows(), min_size=1, max_size=8))
    if mode == "exact":
        results = [analyze_window(w) for w in packets]
    else:
        results = [analyze_window_sketch(w, TINY_SKETCH) for w in packets]
    cut = draw(st.integers(0, len(results)))
    return quantities, mode, results, cut


class _ReferenceFold:
    """The per-quantity fold: one StreamingMoments and one merge chain each."""

    def __init__(self, quantities):
        self.moments = {q: StreamingMoments() for q in quantities}
        self.totals = {q: 0 for q in quantities}
        self.merged = {q: DegreeHistogram.from_dense([]) for q in quantities}

    def update(self, result):
        for q in self.moments:
            pooled = pool_differential_cumulative(result.histograms[q])
            self.moments[q].update(pooled.values)
            self.totals[q] += pooled.total
            self.merged[q] = self.merged[q].merge(result.histograms[q])


def _same(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _analyzer(quantities, mode):
    sketch = TINY_SKETCH if mode == "sketch" else None
    return StreamAnalyzer(N_VALID, quantities, mode=mode, sketch=sketch)


def _assert_matches(analyzer, reference, mode):
    for q, moments in reference.moments.items():
        pooled = analyzer.pooled(q)
        assert _same(pooled.bin_edges, 2 ** np.arange(moments.n_bins, dtype=np.int64))
        assert _same(pooled.values, moments.mean())
        assert _same(pooled.sigma, moments.std(ddof=0))
        assert pooled.total == reference.totals[q]
        if mode == "exact":
            merged = analyzer.merged_histogram(q)
            assert _same(merged.degrees, reference.merged[q].degrees)
            assert _same(merged.counts, reference.merged[q].counts)


@given(stream=streams())
def test_packed_fold_matches_per_quantity_fold(stream):
    quantities, mode, results, _ = stream
    analyzer, reference = _analyzer(quantities, mode), _ReferenceFold(quantities)
    for result in results:
        analyzer.update(result)
        reference.update(result)
    _assert_matches(analyzer, reference, mode)


@given(stream=streams())
def test_snapshot_restore_continues_bit_identically(stream):
    quantities, mode, results, cut = stream
    analyzer, reference = _analyzer(quantities, mode), _ReferenceFold(quantities)
    for result in results[:cut]:
        analyzer.update(result)
        reference.update(result)
    snapshot = pickle.loads(pickle.dumps(analyzer.snapshot()))
    # the snapshot layout is per quantity, as the service checkpoints read it
    assert set(snapshot["moments"]) == set(snapshot["totals"]) == set(quantities)
    for q, moments in reference.moments.items():
        state, expected = snapshot["moments"][q], moments.state()
        assert state["count"] == expected["count"] == cut
        assert _same(state["mean"], expected["mean"])
        assert _same(state["m2"], expected["m2"])
        assert type(snapshot["totals"][q]) is int and snapshot["totals"][q] == reference.totals[q]
    if mode == "exact":
        assert set(snapshot["merged_dense"]) == set(quantities)
        for q, merged in reference.merged.items():
            assert _same(snapshot["merged_dense"][q], merged.dense_counts())
    else:
        assert snapshot["merged_dense"] == {}
    restored = _analyzer(quantities, mode)
    restored.restore(snapshot)
    for result in results[cut:]:
        restored.update(result)
        reference.update(result)
    _assert_matches(restored, reference, mode)


@given(stream=streams())
def test_phase_segmenter_matches_per_phase_fold(stream):
    quantities, mode, results, cut = stream
    # windows before the cut are phase 0, the rest phase 1
    segmenter = PhaseSegmentedAnalyzer(
        N_VALID, 2, lambda index: int(index >= cut * N_VALID), quantities
    )
    references = [_ReferenceFold(quantities), _ReferenceFold(quantities)]
    for index, result in enumerate(results):
        segmenter.update(result, pooled=result.histograms.pooled())
        references[int(index >= cut)].update(result)
    phases = segmenter.result()
    for phase, reference in enumerate(references):
        if phase not in phases.occupied_phases():
            assert all(m.count == 0 for m in reference.moments.values())
            continue
        for q, moments in reference.moments.items():
            pooled = phases.pooled(phase, q)
            assert _same(pooled.values, moments.mean())
            assert _same(pooled.sigma, moments.std(ddof=0))
            assert pooled.total == reference.totals[q]


@given(window=windows())
def test_pooled_block_rows_match_pooling_alone(window):
    histograms = analyze_window(window).histograms
    block = pool_block(histograms)
    for q in QUANTITY_NAMES:
        expected = pool_differential_cumulative(histograms[q])
        pooled = block[q]
        assert _same(pooled.bin_edges, expected.bin_edges)
        assert _same(pooled.values, expected.values)
        assert pooled.total == expected.total
        # the common width past the row's own bins holds exact zeros
        row = block.names.index(q)
        assert not block.values[row, pooled.n_bins :].any()
