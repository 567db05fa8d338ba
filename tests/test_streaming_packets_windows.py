"""Unit tests for repro.streaming.packet, window, and trace_io."""

from __future__ import annotations

import numpy as np
import pytest

from repro.streaming.packet import PACKET_DTYPE, PacketTrace, concatenate_traces, join_records
from repro.streaming.trace_io import load_trace, save_trace
from repro.streaming.window import count_windows, iter_windows, window_boundaries


def _trace_with_invalid(n: int = 100, every: int = 10) -> PacketTrace:
    """A trace where every *every*-th packet is invalid."""
    valid = np.ones(n, dtype=bool)
    valid[::every] = False
    return PacketTrace.from_arrays(
        src=np.arange(n) % 7,
        dst=(np.arange(n) + 1) % 7,
        valid=valid,
    )


class TestPacketTrace:
    def test_from_arrays_defaults(self):
        trace = PacketTrace.from_arrays([1, 2, 3], [4, 5, 6])
        assert trace.n_packets == 3
        assert trace.n_valid == 3
        assert trace.packets.dtype == PACKET_DTYPE
        np.testing.assert_array_equal(trace.packets["time"], [0.0, 1.0, 2.0])

    def test_from_arrays_shape_mismatch(self):
        with pytest.raises(ValueError):
            PacketTrace.from_arrays([1, 2], [3])

    def test_wrong_dtype_rejected(self):
        with pytest.raises(TypeError):
            PacketTrace(np.zeros(5))

    def test_empty_trace(self):
        trace = PacketTrace.empty()
        assert len(trace) == 0
        assert trace.duration == 0.0
        assert trace.unique_endpoints().size == 0

    def test_valid_only_filters(self):
        trace = _trace_with_invalid(100, 10)
        assert trace.n_valid == 90
        assert trace.valid_only().n_packets == 90

    def test_unique_endpoints(self):
        trace = PacketTrace.from_arrays([1, 1, 2], [5, 6, 5])
        np.testing.assert_array_equal(trace.unique_endpoints(), [1, 2, 5, 6])

    def test_slice_is_view_semantics(self):
        trace = _trace_with_invalid(50)
        window = trace.slice(10, 20)
        assert window.n_packets == 10
        np.testing.assert_array_equal(window.sources, trace.sources[10:20])

    def test_duration(self):
        trace = PacketTrace.from_arrays([1, 2], [2, 3], time=[0.5, 2.0])
        assert trace.duration == pytest.approx(1.5)

    def test_total_bytes_counts_valid_only(self):
        trace = PacketTrace.from_arrays(
            [1, 2], [2, 3], size=[100, 200], valid=[True, False]
        )
        assert trace.total_bytes() == 100

    def test_iter_chunks(self):
        trace = _trace_with_invalid(25)
        chunks = list(trace.iter_chunks(10))
        assert [c.n_packets for c in chunks] == [10, 10, 5]

    def test_iter_chunks_invalid_size(self):
        with pytest.raises(ValueError):
            list(_trace_with_invalid(5).iter_chunks(0))

    def test_concatenate(self):
        a = PacketTrace.from_arrays([1], [2])
        b = PacketTrace.from_arrays([3], [4])
        combined = concatenate_traces([a, b])
        assert combined.n_packets == 2
        np.testing.assert_array_equal(combined.sources, [1, 3])

    def test_concatenate_empty_list(self):
        assert concatenate_traces([]).n_packets == 0

    def test_join_records_matches_concatenate_on_strided_and_empty_parts(self):
        packets = _trace_with_invalid(30, 4).packets
        parts = [packets[::3], packets[:0], packets[5:17], packets[::-2]]
        joined = join_records(parts)
        assert joined.dtype == PACKET_DTYPE and joined.flags["C_CONTIGUOUS"]
        assert joined.tobytes() == np.concatenate(parts).tobytes()
        assert not np.shares_memory(join_records([packets]), packets)
        assert join_records([]).dtype == PACKET_DTYPE


class TestWindowing:
    def test_count_windows(self):
        trace = _trace_with_invalid(100, 10)  # 90 valid packets
        assert count_windows(trace, 30) == 3
        assert count_windows(trace, 91) == 0

    def test_each_window_has_exact_valid_count(self):
        trace = _trace_with_invalid(200, 7)
        for window in iter_windows(trace, 40):
            assert window.n_valid == 40

    def test_windows_are_contiguous_and_ordered(self):
        trace = _trace_with_invalid(200, 9)
        boundaries = window_boundaries(trace, 50)
        assert boundaries[0] == 0
        assert np.all(np.diff(boundaries) > 0)

    def test_partial_window_dropped(self):
        trace = _trace_with_invalid(100, 10)  # 90 valid
        windows = list(iter_windows(trace, 40))
        assert len(windows) == 2
        total_valid = sum(w.n_valid for w in windows)
        assert total_valid == 80

    def test_all_valid_trace_windows_cover_everything(self):
        trace = PacketTrace.from_arrays(np.arange(90), np.arange(90) + 1)
        windows = list(iter_windows(trace, 30))
        assert len(windows) == 3
        assert sum(w.n_packets for w in windows) == 90

    def test_empty_trace(self):
        assert list(iter_windows(PacketTrace.empty(), 10)) == []

    def test_invalid_nv_rejected(self):
        with pytest.raises((ValueError, TypeError)):
            list(iter_windows(_trace_with_invalid(10), 0))


class TestTraceIO:
    def test_round_trip(self, tmp_path):
        trace = _trace_with_invalid(64, 8)
        path = save_trace(trace, tmp_path / "trace.npz")
        loaded = load_trace(path)
        np.testing.assert_array_equal(loaded.packets, trace.packets)

    def test_round_trip_without_npz_suffix(self, tmp_path):
        trace = _trace_with_invalid(16)
        path = save_trace(trace, tmp_path / "capture")
        assert str(path).endswith(".npz")
        loaded = load_trace(path)
        assert loaded.n_packets == 16

    def test_creates_parent_directories(self, tmp_path):
        trace = _trace_with_invalid(8)
        path = save_trace(trace, tmp_path / "nested" / "dir" / "t.npz")
        assert load_trace(path).n_packets == 8

    def test_bad_version_rejected(self, tmp_path):
        trace = _trace_with_invalid(8)
        path = save_trace(trace, tmp_path / "t.npz")
        data = dict(np.load(path))
        data["version"] = np.int64(99)
        np.savez_compressed(path, **data)
        with pytest.raises(ValueError, match="version"):
            load_trace(path)
