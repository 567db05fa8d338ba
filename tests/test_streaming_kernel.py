"""Property harness pinning the fused window kernel to the matrix oracle.

The fused sort-based kernel (:mod:`repro.streaming.kernel`) must be a pure
optimisation: for **every** window, :func:`repro.streaming.pipeline.analyze_window`
(kernel) and :func:`repro.streaming.pipeline.analyze_window_image` (the
sparse ``A_t`` route it replaced) must produce *exactly* equal aggregates
and all five Figure-1 histograms — integer-exact, not approximately.  The
hypothesis strategies below deliberately cover the adversarial corners:
empty windows, all-invalid windows, single-edge windows, duplicate-heavy
traffic, and endpoint ids at the 32-bit packing boundary (including ids
beyond it, which must take the oracle fallback and still agree).
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.streaming.aggregates import QUANTITY_NAMES
from repro.streaming.kernel import (
    KERNEL_MAX_ID,
    fused_products,
    image_products,
    packable,
    payload_columns,
    payload_products,
    window_payload,
)
from repro.streaming.packet import PacketTrace
from repro.streaming.pipeline import (
    _analyze_batch,
    analyze_window,
    analyze_window_image,
)

# -- strategies ---------------------------------------------------------------

#: Id pools that stress distinct kernel regimes.
_SMALL_IDS = st.integers(min_value=0, max_value=4)  # duplicate-heavy
_MEDIUM_IDS = st.integers(min_value=0, max_value=10_000)
_BOUNDARY_IDS = st.sampled_from(
    [0, 1, 2**31 - 1, 2**31, 2**32 - 2, KERNEL_MAX_ID]
)
_WIDE_IDS = st.integers(min_value=-5, max_value=2**40)  # exercises the fallback

_ID_POOLS = st.sampled_from([_SMALL_IDS, _MEDIUM_IDS, _BOUNDARY_IDS, _WIDE_IDS])


@st.composite
def windows(draw) -> PacketTrace:
    """An adversarial window: empty / all-invalid / duplicate-heavy / boundary ids."""
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


def assert_products_equal(result, oracle) -> None:
    """Exact equality of aggregates and every histogram, dtypes included."""
    assert result.aggregates == oracle.aggregates
    assert set(result.histograms) == set(oracle.histograms) == set(QUANTITY_NAMES)
    for name in QUANTITY_NAMES:
        mine, theirs = result.histograms[name], oracle.histograms[name]
        assert mine.degrees.dtype == theirs.degrees.dtype == np.int64
        assert mine.counts.dtype == theirs.counts.dtype == np.int64
        assert np.array_equal(mine.degrees, theirs.degrees), name
        assert np.array_equal(mine.counts, theirs.counts), name


# -- kernel ≡ oracle ----------------------------------------------------------


class TestKernelEquivalence:
    @given(window=windows())
    @settings(max_examples=200)
    def test_kernel_matches_image_oracle(self, window):
        assert_products_equal(analyze_window(window), analyze_window_image(window))

    @given(window=windows())
    @settings(max_examples=100)
    def test_payload_roundtrip_matches_direct_analysis(self, window):
        payload = window_payload(window)
        (pairs,) = [_analyze_batch((payload,))]
        result, pooled = pairs[0]
        direct = analyze_window(window)
        assert_products_equal(result, direct)
        # worker-side pooling must be bitwise what the fold would compute
        from repro.analysis.pooling import pool_differential_cumulative

        for name in QUANTITY_NAMES:
            expected = pool_differential_cumulative(direct.histograms[name])
            assert np.array_equal(pooled[name].bin_edges, expected.bin_edges)
            assert np.array_equal(pooled[name].values, expected.values)
            assert pooled[name].total == expected.total

    def test_empty_window(self):
        window = PacketTrace.empty()
        result = analyze_window(window)
        assert result.aggregates.valid_packets == 0
        assert_products_equal(result, analyze_window_image(window))

    def test_all_invalid_window(self):
        window = PacketTrace.from_arrays([1, 2, 3], [4, 5, 6], valid=[False] * 3)
        result = analyze_window(window)
        assert result.aggregates.valid_packets == 0
        assert all(h.total == 0 for h in result.histograms.values())
        assert_products_equal(result, analyze_window_image(window))

    def test_single_edge_window(self):
        window = PacketTrace.from_arrays([7] * 50, [9] * 50)
        result = analyze_window(window)
        assert result.aggregates.valid_packets == 50
        assert result.aggregates.unique_links == 1
        assert result.histograms["link_packets"].degrees.tolist() == [50]
        assert_products_equal(result, analyze_window_image(window))

    def test_boundary_ids_use_fused_path(self):
        src = np.array([0, KERNEL_MAX_ID, KERNEL_MAX_ID, 0], dtype=np.int64)
        dst = np.array([KERNEL_MAX_ID, 0, KERNEL_MAX_ID, 0], dtype=np.int64)
        assert packable(src, dst)
        agg, hists = fused_products(src, dst)
        oracle_agg, oracle_hists = image_products(src, dst)
        assert agg == oracle_agg
        for name in QUANTITY_NAMES:
            assert np.array_equal(hists[name].counts, oracle_hists[name].counts)

    @pytest.mark.parametrize("bad_id", [-1, 2**32, 2**40])
    def test_out_of_range_ids_fall_back_and_agree(self, bad_id):
        window = PacketTrace.from_arrays([bad_id, 3, 3], [5, bad_id, 5])
        src = window.packets["src"]
        dst = window.packets["dst"]
        assert not packable(src, dst)
        assert_products_equal(analyze_window(window), analyze_window_image(window))


class TestKernelDispatch:
    """Only the *valid* packets must pack for a window to take the fused path."""

    @staticmethod
    def _wide_invalid_window(bad_id: int) -> PacketTrace:
        return PacketTrace.from_arrays(
            [3, bad_id, 3, 8, 4, 5],
            [bad_id, 9, 9, 9, KERNEL_MAX_ID, 9],
            valid=[False, False, True, True, True, True],
        )

    @pytest.mark.parametrize("bad_id", [-1, -(2**40), 2**32, 2**40])
    def test_wide_ids_on_invalid_packets_keep_the_fused_path(self, bad_id, monkeypatch):
        window = self._wide_invalid_window(bad_id)
        oracle = analyze_window_image(window)

        def no_fallback(src, dst):
            raise AssertionError("valid ids pack; the oracle fallback must not run")

        monkeypatch.setattr("repro.streaming.kernel.image_products", no_fallback)
        assert_products_equal(analyze_window(window), oracle)
        aggregates, histograms = payload_products(window_payload(window))
        assert_products_equal(SimpleNamespace(aggregates=aggregates, histograms=histograms), oracle)


# -- payload shape ------------------------------------------------------------


class TestWindowPayload:
    def test_all_valid_elides_mask(self):
        window = PacketTrace.from_arrays([1, 2], [3, 4])
        src, dst, valid = window_payload(window)
        assert valid is None
        assert src.flags["C_CONTIGUOUS"] and dst.flags["C_CONTIGUOUS"]
        out_src, out_dst = payload_columns((src, dst, valid))
        assert np.array_equal(out_src, [1, 2]) and np.array_equal(out_dst, [3, 4])

    def test_mixed_validity_ships_mask_and_filters_in_worker(self):
        window = PacketTrace.from_arrays([1, 2, 3], [4, 5, 6], valid=[True, False, True])
        payload = window_payload(window)
        assert payload[2] is not None
        out_src, out_dst = payload_columns(payload)
        assert out_src.tolist() == [1, 3] and out_dst.tolist() == [4, 6]

    def test_payload_has_no_time_or_size(self):
        window = PacketTrace.from_arrays([1], [2])
        payload = window_payload(window)
        assert len(payload) == 3  # src, dst, valid — nothing else ships
