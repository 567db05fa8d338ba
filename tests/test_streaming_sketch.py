"""Property harness pinning the sketch tier to the exact kernel oracle.

The sketch tier (:mod:`repro.streaming.sketch`) trades exactness for
sub-linear per-window memory, so unlike the fused kernel it is **not**
pinned to integer equality — it is pinned to its *guarantees*:

* Count-Min point estimates never undercount, and overcount by more than
  ``effective_epsilon * n_packets`` on at most an ``effective_delta``
  fraction of queries (the classic ``(eps, delta)`` bound);
* the packet-count histograms conserve mass exactly —
  ``sum(degree * count) == n_valid`` — whatever the collisions did;
* the valid-packet aggregate is exact, and the HyperLogLog distinct
  aggregates land within a few standard errors of the exact kernel's;
* merging is associative and **bit-identical** to sketching the
  concatenated window, for every split — the property that makes the
  StreamAnalyzer fold backend- and chunking-invariant.

The hypothesis strategies deliberately cover the adversarial corners the
kernel harness covers: empty windows, all-invalid windows, duplicate-heavy
traffic, and heavy-hitter-skewed workloads.  The exact kernel
(:func:`repro.streaming.pipeline.analyze_window`) serves as the oracle
throughout.
"""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.pooling import pool_differential_cumulative
from repro.streaming.aggregates import QUANTITY_NAMES
from repro.streaming.packet import PacketTrace
from repro.streaming.pipeline import (
    MODE_NAMES,
    StreamAnalyzer,
    analyze_trace,
    analyze_window,
    analyze_window_sketch,
)
from repro.streaming.sketch import (
    DEFAULT_SKETCH_CONFIG,
    SketchConfig,
    WindowSketch,
    build_sketch,
    sketch_products,
)

#: Quantities served by Count-Min bucket histograms (mass-conserving).
CMS_QUANTITIES = ("source_packets", "link_packets", "destination_packets")

#: A deliberately tiny, collision-heavy configuration: every structural
#: invariant (mass conservation, mergeability, determinism) must survive
#: heavy collisions, not just the roomy default tables.
TINY_CONFIG = SketchConfig(epsilon=0.05, delta=0.3, hll_p=4, spread_rows=8, spread_cols=8)

# -- strategies ---------------------------------------------------------------

_SMALL_IDS = st.integers(min_value=0, max_value=4)  # duplicate-heavy
_MEDIUM_IDS = st.integers(min_value=0, max_value=10_000)
_WIDE_IDS = st.integers(min_value=-(2**62), max_value=2**62)  # arbitrary int64 ids
_HEAVY_HITTER_IDS = st.sampled_from([7] * 8 + [11, 13, 17, 1_000_003])  # skewed

_ID_POOLS = st.sampled_from([_SMALL_IDS, _MEDIUM_IDS, _WIDE_IDS, _HEAVY_HITTER_IDS])


@st.composite
def windows(draw) -> PacketTrace:
    """An adversarial window: empty / all-invalid / duplicate- or hitter-heavy."""
    n = draw(st.integers(min_value=0, max_value=120))
    ids = draw(_ID_POOLS)
    src = draw(st.lists(ids, min_size=n, max_size=n))
    dst = draw(st.lists(ids, min_size=n, max_size=n))
    valid = draw(
        st.one_of(
            st.just([True] * n),
            st.just([False] * n),
            st.lists(st.booleans(), min_size=n, max_size=n),
        )
    )
    return PacketTrace.from_arrays(
        np.asarray(src, dtype=np.int64),
        np.asarray(dst, dtype=np.int64),
        valid=np.asarray(valid, dtype=bool),
    )


@st.composite
def columns(draw) -> tuple[np.ndarray, np.ndarray]:
    """Valid ``(src, dst)`` id columns (the post-filter build input)."""
    n = draw(st.integers(min_value=0, max_value=150))
    ids = draw(_ID_POOLS)
    src = np.asarray(draw(st.lists(ids, min_size=n, max_size=n)), dtype=np.int64)
    dst = np.asarray(draw(st.lists(ids, min_size=n, max_size=n)), dtype=np.int64)
    return src, dst


def _zipf_columns(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """A heavy-tailed workload with many distinct entities (HLL accuracy runs)."""
    rng = np.random.default_rng(seed)
    src = rng.zipf(1.2, n).astype(np.int64) % max(n // 2, 1)
    dst = rng.zipf(1.2, n).astype(np.int64) % max(n // 2, 1)
    return src, dst


# -- the (eps, delta) Count-Min guarantee -------------------------------------


class TestCountMinGuarantee:
    @given(cols=columns())
    @settings(max_examples=150)
    def test_point_estimates_respect_eps_delta(self, cols):
        """Never undercounts; overcount > eps*n on <= a delta fraction of queries."""
        src, dst = cols
        sketch = build_sketch(src, dst)
        n = int(src.size)
        slack = DEFAULT_SKETCH_CONFIG.effective_epsilon * n
        delta = DEFAULT_SKETCH_CONFIG.effective_delta
        for kind, ids in (("source", src), ("destination", dst)):
            uniq, true = np.unique(ids, return_counts=True)
            if not uniq.size:
                continue
            est = sketch.query(kind, uniq)
            err = est - true
            assert (err >= 0).all(), f"{kind}: Count-Min undercounted"
            violations = int((err > slack).sum())
            assert violations <= math.ceil(delta * uniq.size), (
                f"{kind}: {violations}/{uniq.size} queries exceeded eps*n = {slack:.3f}"
            )

    @given(cols=columns())
    @settings(max_examples=100)
    def test_link_estimates_never_undercount(self, cols):
        src, dst = cols
        if not src.size:
            return
        sketch = build_sketch(src, dst)
        pairs = np.stack([src, dst], axis=1)
        _, first, true = np.unique(pairs, axis=0, return_index=True, return_counts=True)
        est = sketch.query("link", src[first], dst[first])
        assert (est >= true).all()

    def test_absent_keys_read_as_pure_overcount(self):
        src = np.arange(50, dtype=np.int64)
        sketch = build_sketch(src, src + 1)
        est = sketch.query("source", np.arange(10**6, 10**6 + 64, dtype=np.int64))
        assert (est >= 0).all()
        # width 4096, 50 occupied buckets: almost every probe must miss
        assert int((est == 0).sum()) >= 32


# -- structural invariants ----------------------------------------------------


class TestSketchInvariants:
    @given(cols=columns(), config=st.sampled_from([DEFAULT_SKETCH_CONFIG, TINY_CONFIG]))
    @settings(max_examples=150)
    def test_packet_histograms_conserve_mass_exactly(self, cols, config):
        src, dst = cols
        _, hists, _, sketch = sketch_products(src, dst, config)
        assert sketch.n_packets == src.size
        for name in CMS_QUANTITIES:
            hist = hists[name]
            mass = int((hist.degrees * hist.counts).sum())
            assert mass == src.size, f"{name}: {mass} != {src.size}"

    @given(
        cols=columns(),
        cut=st.integers(min_value=0, max_value=150),
        config=st.sampled_from([DEFAULT_SKETCH_CONFIG, TINY_CONFIG]),
    )
    @settings(max_examples=150)
    def test_merge_is_bit_identical_to_whole_build(self, cols, cut, config):
        """Sketching chunks and merging == sketching the concatenation."""
        src, dst = cols
        cut = min(cut, src.size)
        parts = build_sketch(src[:cut], dst[:cut], config).merge(
            build_sketch(src[cut:], dst[cut:], config)
        )
        assert parts == build_sketch(src, dst, config)

    @given(cols=columns(), config=st.sampled_from([DEFAULT_SKETCH_CONFIG, TINY_CONFIG]))
    @settings(max_examples=60)
    def test_merge_is_associative(self, cols, config):
        src, dst = cols
        a_end, b_end = src.size // 3, 2 * src.size // 3
        a = build_sketch(src[:a_end], dst[:a_end], config)
        b = build_sketch(src[a_end:b_end], dst[a_end:b_end], config)
        c = build_sketch(src[b_end:], dst[b_end:], config)
        assert a.merge(b).merge(c) == a.merge(b.merge(c))

    def test_merge_rejects_mismatched_configs(self):
        a = WindowSketch.empty(DEFAULT_SKETCH_CONFIG)
        b = WindowSketch.empty(TINY_CONFIG)
        with pytest.raises(ValueError, match="config"):
            a.merge(b)

    def test_different_seeds_sketch_differently(self):
        src = np.arange(200, dtype=np.int64)
        a = build_sketch(src, src + 1, SketchConfig(seed=1))
        b = build_sketch(src, src + 1, SketchConfig(seed=2))
        assert a != b  # different salts place keys in different cells

    def test_empty_and_all_invalid_windows(self):
        for window in (
            PacketTrace.empty(),
            PacketTrace.from_arrays([1, 2, 3], [4, 5, 6], valid=[False] * 3),
        ):
            result = analyze_window_sketch(window)
            assert result.aggregates.valid_packets == 0
            assert result.aggregates.unique_links == 0
            assert all(h.total == 0 for h in result.histograms.values())
            assert result.sketch == WindowSketch.empty()

    def test_sketch_pickles_round_trip(self):
        src, dst = _zipf_columns(5_000, seed=7)
        sketch = build_sketch(src, dst)
        clone = pickle.loads(pickle.dumps(sketch))
        assert clone == sketch
        assert clone.config == sketch.config
        assert clone.aggregates() == sketch.aggregates()

    def test_footprint_is_data_independent(self):
        small = build_sketch(*_zipf_columns(100, seed=1))
        large = build_sketch(*_zipf_columns(50_000, seed=1))
        assert small.nbytes == large.nbytes  # sub-linear: fixed tables


# -- accuracy against the exact oracle ----------------------------------------


class TestAccuracyAgainstExactOracle:
    @pytest.mark.parametrize("seed", [3, 11])
    def test_distinct_aggregates_within_hll_error(self, seed):
        src, dst = _zipf_columns(40_000, seed=seed)
        window = PacketTrace.from_arrays(src, dst)
        exact = analyze_window(window).aggregates
        est = analyze_window_sketch(window).aggregates
        assert est.valid_packets == exact.valid_packets  # exact by construction
        tolerance = 5 * DEFAULT_SKETCH_CONFIG.hll_relative_error
        for field in ("unique_sources", "unique_destinations", "unique_links"):
            true, got = getattr(exact, field), getattr(est, field)
            assert abs(got - true) <= max(3, tolerance * true), (
                f"{field}: estimated {got} vs exact {true}"
            )

    def test_bounds_describe_every_estimate(self):
        _, _, bounds, _ = sketch_products(*_zipf_columns(2_000, seed=5))
        assert set(QUANTITY_NAMES) <= set(bounds)
        assert bounds["valid_packets"].relative_error == 0.0
        for name in CMS_QUANTITIES:
            assert bounds[name].estimator == "count-min"
            assert bounds[name].epsilon == DEFAULT_SKETCH_CONFIG.effective_epsilon
            assert bounds[name].delta == DEFAULT_SKETCH_CONFIG.effective_delta
        for name in ("unique_links", "unique_sources", "unique_destinations"):
            assert bounds[name].estimator == "hyperloglog"
            assert bounds[name].relative_error == DEFAULT_SKETCH_CONFIG.hll_relative_error
        for name in ("source_fanout", "destination_fanin"):
            assert bounds[name].estimator == "spread-bitmap"
            assert 0.0 < bounds[name].relative_error < 1.0

    def test_tighter_epsilon_means_wider_table(self):
        loose, tight = SketchConfig(epsilon=1e-2), SketchConfig(epsilon=1e-4)
        assert tight.width > loose.width
        assert tight.effective_epsilon < loose.effective_epsilon <= 1e-2
        assert SketchConfig(delta=0.01).depth > SketchConfig(delta=0.5).depth


# -- configuration ------------------------------------------------------------


class TestSketchConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epsilon": 0.0},
            {"epsilon": 1.0},
            {"delta": 0.0},
            {"delta": 1.5},
            {"hll_p": 3},
            {"hll_p": 19},
            {"spread_rows": 6},
            {"spread_cols": 48},
        ],
    )
    def test_invalid_knobs_are_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SketchConfig(**kwargs)

    def test_key_payload_covers_every_accuracy_knob(self):
        payload = SketchConfig().as_key_payload()
        assert set(payload) == {
            "epsilon", "delta", "hll_p", "spread_rows", "spread_cols", "seed"
        }
        assert payload == SketchConfig().as_key_payload()  # stable across instances
        assert SketchConfig(seed=1).as_key_payload() != payload


# -- the engine fold ----------------------------------------------------------


class TestSketchModeEngine:
    @pytest.fixture(scope="class")
    def trace(self) -> PacketTrace:
        src, dst = _zipf_columns(30_000, seed=9)
        return PacketTrace.from_arrays(src, dst)

    def test_backends_are_bit_identical(self, trace):
        reference = analyze_trace(trace, 5_000, mode="sketch")
        assert reference.mode == "sketch"
        for kwargs in (
            {"backend": "serial"},
            {"backend": "process", "n_workers": 2},
            {"backend": "serial", "chunk_packets": 7_000, "keep_windows": False},
        ):
            other = analyze_trace(trace, 5_000, mode="sketch", **kwargs)
            assert other.sketch == reference.sketch, kwargs
            for name in QUANTITY_NAMES:
                mine = other.merged_histogram(name)
                theirs = reference.merged_histogram(name)
                assert np.array_equal(mine.degrees, theirs.degrees), (kwargs, name)
                assert np.array_equal(mine.counts, theirs.counts), (kwargs, name)
                assert np.array_equal(
                    other.pooled(name).values, reference.pooled(name).values
                ), (kwargs, name)

    def test_merged_sketch_equals_whole_trace_sketch(self, trace):
        """The fold across windows == one sketch of all valid packets."""
        analysis = analyze_trace(trace, 5_000, mode="sketch")
        n_folded = analysis.n_windows * 5_000
        whole = build_sketch(
            trace.packets["src"][:n_folded], trace.packets["dst"][:n_folded]
        )
        assert analysis.sketch == whole

    def test_exact_mode_is_unchanged_default(self, trace):
        analysis = analyze_trace(trace, 10_000)
        assert analysis.mode == "exact"
        assert analysis.sketch is None
        assert analysis.bounds is None

    def test_window_results_carry_bounds_and_sketch(self, trace):
        result = analyze_window_sketch(PacketTrace.from_arrays([1, 2], [3, 4]))
        assert result.sketch is not None
        assert result.bounds is not None
        assert set(QUANTITY_NAMES) <= set(result.bounds)
        # exact-mode results keep the fields empty (payload stays lean)
        exact = analyze_window(PacketTrace.from_arrays([1, 2], [3, 4]))
        assert exact.sketch is None and exact.bounds is None

    def test_pooled_vectors_follow_sketched_histograms(self, trace):
        analysis = analyze_trace(trace, 5_000, mode="sketch")
        merged = analysis.merged_histogram("source_packets")
        # pooling runs per window then folds; merged histogram pools too
        assert pool_differential_cumulative(merged).total == merged.total

    def test_mode_names_constant(self):
        assert MODE_NAMES == ("exact", "sketch")

    def test_unknown_mode_rejected(self, trace):
        with pytest.raises(ValueError, match="mode"):
            analyze_trace(trace, 5_000, mode="bogus")

    def test_sketch_config_in_exact_mode_rejected(self, trace):
        with pytest.raises(ValueError, match="exact"):
            analyze_trace(trace, 5_000, sketch=SketchConfig())

    def test_sketch_mode_analyzer_rejects_exact_results(self):
        analyzer = StreamAnalyzer(100, mode="sketch")
        exact_result = analyze_window(PacketTrace.from_arrays([1], [2]))
        with pytest.raises(ValueError, match="sketch"):
            analyzer.update(exact_result)

    def test_sketch_mode_analyzer_rejects_foreign_config(self):
        analyzer = StreamAnalyzer(100, mode="sketch", sketch=SketchConfig(seed=1))
        other = analyze_window_sketch(
            PacketTrace.from_arrays([1], [2]), config=SketchConfig(seed=2)
        )
        with pytest.raises(ValueError, match="SketchConfig"):
            analyzer.update(other)

    def test_analysis_pickles_with_sketch(self, trace):
        analysis = analyze_trace(trace, 10_000, mode="sketch")
        clone = pickle.loads(pickle.dumps(analysis))
        assert clone.sketch == analysis.sketch
        assert clone.bounds == analysis.bounds
