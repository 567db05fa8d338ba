"""Tests of the single-pass streaming engine: chunked windowing, sharded
trace I/O, execution backends, and the incremental analyzer."""

from __future__ import annotations

import logging
import pickle
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.moments import StreamingMoments
from repro.streaming.aggregates import QUANTITY_NAMES
from repro.streaming.packet import PacketTrace
from repro.streaming.parallel import (
    BACKEND_NAMES,
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    default_worker_count,
    get_backend,
    shared_pool,
    shutdown_shared_pools,
    usable_cpu_count,
)
import repro.streaming.pipeline as pipeline
from repro.streaming.pipeline import (
    BATCH_WINDOWS,
    MODE_NAMES,
    StreamAnalyzer,
    WindowedAnalysis,
    iter_window_results,
    analyze_trace,
    analyze_window,
)
from repro.streaming.trace_io import (
    ANALYSIS_COLUMNS,
    iter_trace_chunks,
    load_trace,
    read_json,
    save_trace,
    save_trace_sharded,
    trace_format,
    write_json_atomic,
)
from repro.streaming.window import (
    PushWindower,
    iter_batches,
    iter_windows,
)


class TestStreamingMoments:
    def test_matches_numpy_two_pass(self, rng):
        samples = rng.standard_normal((13, 6))
        moments = StreamingMoments()
        for row in samples:
            moments.update(row)
        assert moments.count == 13
        np.testing.assert_allclose(moments.mean(), samples.mean(axis=0), rtol=1e-12)
        np.testing.assert_allclose(moments.std(), samples.std(axis=0, ddof=0), rtol=1e-10)

    def test_growing_vectors_zero_fill(self):
        moments = StreamingMoments()
        moments.update([1.0, 2.0])
        moments.update([3.0, 4.0, 5.0])
        stacked = np.array([[1.0, 2.0, 0.0], [3.0, 4.0, 5.0]])
        np.testing.assert_allclose(moments.mean(), stacked.mean(axis=0))
        np.testing.assert_allclose(moments.std(), stacked.std(axis=0))

    def test_empty_and_invalid(self):
        moments = StreamingMoments()
        assert moments.std().size == 0
        with pytest.raises(ValueError):
            moments.update(np.zeros((2, 2)))


def _push_all(windower: PushWindower, chunks) -> list:
    """Every window *windower* cuts from *chunks*, pushed in order."""
    return [window for chunk in chunks for window in windower.push(chunk)]


class TestPushWindower:
    def test_equivalent_to_iter_windows(self, small_trace):
        full = list(iter_windows(small_trace, 20_000))
        for chunk_packets in (3_000, 20_000, 37_000, 200_000):
            chunked = _push_all(PushWindower(20_000), small_trace.iter_chunks(chunk_packets))
            assert len(chunked) == len(full)
            for expected, got in zip(full, chunked):
                assert np.array_equal(expected.packets, got.packets)

    def test_empty_trace(self):
        assert _push_all(PushWindower(100), []) == []
        assert _push_all(PushWindower(100), [PacketTrace.empty()]) == []

    def test_zero_valid_packets(self):
        trace = PacketTrace.from_arrays([1, 2, 3], [4, 5, 6], valid=[False, False, False])
        assert list(iter_windows(trace, 2)) == []
        assert _push_all(PushWindower(2), trace.iter_chunks(2)) == []

    def test_trailing_partial_window_dropped(self):
        trace = PacketTrace.from_arrays(np.arange(10), np.arange(10) + 100)
        windows = _push_all(PushWindower(4), trace.iter_chunks(3))
        assert len(windows) == 2  # 10 valid packets → two windows of 4, partial 2 dropped
        assert all(w.n_valid == 4 for w in windows)

    def test_invalid_packets_ride_along(self):
        valid = np.array([True, False, True, True, False, True, True, True])
        trace = PacketTrace.from_arrays(np.arange(8), np.arange(8) + 10, valid=valid)
        for chunk_packets in (1, 3, 8):
            windows = _push_all(PushWindower(3), trace.iter_chunks(chunk_packets))
            expected = list(iter_windows(trace, 3))
            assert len(windows) == len(expected) == 2
            for a, b in zip(expected, windows):
                assert np.array_equal(a.packets, b.packets)

    def test_buffer_high_water_mark_bounded(self, small_trace):
        chunk_packets = 5_000
        windower = PushWindower(10_000)
        windows = _push_all(windower, small_trace.iter_chunks(chunk_packets))
        assert windows
        # leftover (< one window span) + one chunk; windows of 10k valid packets
        # span ~10k packets here, so the buffer never approaches the trace size
        assert windower.max_buffered_packets < small_trace.n_packets / 2
        assert windower.n_chunks == -(-small_trace.n_packets // chunk_packets)

    def test_rejects_non_trace_chunks(self):
        with pytest.raises(TypeError):
            PushWindower(2).push(np.arange(3))


def _reference_window_ends(valid: np.ndarray, n_valid: int) -> np.ndarray:
    """Naive window ends: the packet index one past every n_valid-th valid packet."""
    cumulative = np.cumsum(valid.astype(np.int64))
    n_windows = int(cumulative[-1]) // n_valid if cumulative.size else 0
    targets = np.arange(1, n_windows + 1) * n_valid
    return np.searchsorted(cumulative, targets, side="left") + 1


@st.composite
def _rebatched_streams(draw):
    """A trace with invalid packets, a window size, and a re-batching of it.

    The cut sizes mix empty chunks, single packets, and chunks spanning
    several windows; sparse validity yields chunks with no valid packet.
    """
    n_valid = draw(st.integers(min_value=1, max_value=12))
    n = draw(st.integers(min_value=0, max_value=240))
    valid = draw(st.lists(st.sampled_from([True, True, False]), min_size=n, max_size=n))
    trace = PacketTrace.from_arrays(
        np.arange(n) % 7, np.arange(n) % 5 + 100, valid=np.asarray(valid, dtype=bool)
    )
    sizes = draw(
        st.lists(
            st.one_of(st.just(0), st.just(1), st.integers(2, 9), st.integers(30, 200)),
            max_size=40,
        )
    )
    chunks, start = [], 0
    for size in sizes:
        chunks.append(trace.slice(start, start + size))
        start = min(start + size, n)
    chunks.append(trace.slice(start, n))
    return trace, n_valid, chunks


class TestPushWindowerProperties:
    @given(stream=_rebatched_streams(), data=st.data())
    @settings(max_examples=150)
    def test_any_rebatching_matches_naive_reference(self, stream, data):
        trace, n_valid, chunks = stream
        valid = trace.packets["valid"]
        ends = _reference_window_ends(valid, n_valid)
        starts = np.concatenate([[0], ends[:-1]])
        restore_at = data.draw(st.integers(0, len(chunks)), label="restore_at")

        windower = PushWindower(n_valid)
        pushed, emitted, high = 0, 0, 0
        for index, chunk in enumerate(chunks):
            if index == restore_at:
                restored = PushWindower(n_valid)
                restored.restore(pickle.loads(pickle.dumps(windower.snapshot())))
                windower = restored
            consumed = int(ends[emitted - 1]) if emitted else 0
            if chunk.n_packets:
                high = max(high, pushed - consumed + chunk.n_packets)
            windows = windower.push(chunk)
            pushed += chunk.n_packets
            for window in windows:
                expected = trace.packets[starts[emitted]:ends[emitted]]
                assert window.packets.tobytes() == expected.tobytes()
                emitted += 1
            closed = int(np.searchsorted(ends, pushed, side="right"))
            assert emitted == closed
            consumed = int(ends[emitted - 1]) if emitted else 0
            assert windower.buffered_packets == pushed - consumed
            assert windower.buffered_valid == int(valid[consumed:pushed].sum())
            assert windower.max_buffered_packets == high
            assert windower.n_chunks == index + 1
        assert emitted == ends.size

    def test_window_inside_one_chunk_is_a_view(self):
        trace = PacketTrace.from_arrays(np.arange(100), np.arange(100) + 1000)
        first, second = trace.slice(0, 15), trace.slice(15, 100)
        windower = PushWindower(10)
        (head,) = windower.push(first)
        assert np.shares_memory(head.packets, first.packets)
        straddling, *inside = windower.push(second)
        # only the window spanning the two chunks is copied
        assert straddling.packets.tobytes() == trace.packets[10:20].tobytes()
        assert not np.shares_memory(straddling.packets, second.packets)
        assert len(inside) == 8
        assert all(np.shares_memory(w.packets, second.packets) for w in inside)

    def test_restore_refuses_a_full_window_of_pending_packets(self):
        windower = PushWindower(4)
        windower.push(PacketTrace.from_arrays([1, 2, 3], [4, 5, 6]))
        state = windower.snapshot()
        with pytest.raises(ValueError, match="fewer than n_valid"):
            PushWindower(3).restore({**state, "n_valid": 3})


class TestShardedTraceIO:
    def test_round_trip_identical(self, small_trace, tmp_path):
        path = save_trace_sharded(small_trace, tmp_path / "trace-v2", shard_packets=7_000)
        assert trace_format(path) == 2
        loaded = load_trace(path)
        assert np.array_equal(loaded.packets, small_trace.packets)

    def test_v1_still_works(self, small_trace, tmp_path):
        path = save_trace(small_trace, tmp_path / "trace-v1.npz")
        assert trace_format(path) == 1
        assert np.array_equal(load_trace(path).packets, small_trace.packets)

    def test_iter_trace_chunks_rechunks_both_formats(self, small_trace, tmp_path):
        v1 = save_trace(small_trace, tmp_path / "t.npz")
        v2 = save_trace_sharded(small_trace, tmp_path / "t2", shard_packets=9_000)
        for path in (v1, v2):
            chunks = list(iter_trace_chunks(path, 4_000))
            assert sum(c.n_packets for c in chunks) == small_trace.n_packets
            assert all(c.n_packets == 4_000 for c in chunks[:-1])
            assert np.array_equal(
                np.concatenate([c.packets for c in chunks]), small_trace.packets
            )

    def test_default_chunks_are_shards(self, small_trace, tmp_path):
        path = save_trace_sharded(small_trace, tmp_path / "t2", shard_packets=50_000)
        chunks = list(iter_trace_chunks(path))
        assert [c.n_packets for c in chunks[:-1]] == [50_000] * (len(chunks) - 1)

    def test_directory_without_manifest_rejected(self, tmp_path):
        (tmp_path / "not-a-trace").mkdir()
        with pytest.raises(ValueError):
            trace_format(tmp_path / "not-a-trace")

    def test_missing_path_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no stored trace at"):
            trace_format(tmp_path / "nope")

    def test_load_checks_manifest_packet_count(self, small_trace, tmp_path):
        path = save_trace_sharded(small_trace.slice(0, 20_000), tmp_path / "t2", shard_packets=7_000)
        manifest = read_json(path / "manifest.json")
        write_json_atomic(path / "manifest.json", {**manifest, "n_packets": 20_001})
        with pytest.raises(ValueError, match="its manifest says 20001"):
            load_trace(path)

    def test_sharded_over_existing_file_rejected(self, small_trace, tmp_path):
        path = save_trace(small_trace, tmp_path / "t.npz")
        with pytest.raises(ValueError, match="exists as a file"):
            save_trace_sharded(small_trace, path)

    def test_resave_removes_stale_shards(self, small_trace, tmp_path):
        """Regression: re-sharding to the same path must not leave orphaned
        shards from a previous, longer save."""
        path = tmp_path / "t2"
        save_trace_sharded(small_trace, path, shard_packets=10_000)  # 12 shards
        assert len(list(path.glob("shard-*.npz"))) == 12
        shorter = PacketTrace(small_trace.packets[:30_000])
        save_trace_sharded(shorter, path, shard_packets=10_000)  # 3 shards
        assert len(list(path.glob("shard-*.npz"))) == 3
        assert np.array_equal(load_trace(path).packets, shorter.packets)

    def test_sharded_writer_accepts_chunk_iterator(self, small_trace, tmp_path):
        path = save_trace_sharded(
            small_trace.iter_chunks(11_000), tmp_path / "t2", shard_packets=30_000
        )
        assert np.array_equal(load_trace(path).packets, small_trace.packets)


class TestBackends:
    def test_explicit_worker_count_honoured(self):
        """Regression: backend="process" with an explicit n_workers=1 must
        not silently substitute the automatic worker count."""
        assert get_backend("process", n_workers=1).n_workers == 1
        assert get_backend("process", n_workers=3).n_workers == 3
        assert get_backend("process").n_workers >= 1  # unset → automatic

    def test_get_backend_names(self):
        for name in BACKEND_NAMES:
            backend = get_backend(name)
            assert isinstance(backend, ExecutionBackend)
            assert backend.name == name
        assert get_backend(None).name == "serial"
        assert get_backend(None, n_workers=2).name == "process"
        instance = SerialBackend()
        assert get_backend(instance) is instance
        with pytest.raises(ValueError):
            get_backend("gpu")
        with pytest.raises(TypeError):
            get_backend(42)

    def test_serial_backend_is_lazy(self):
        consumed = []

        def producer():
            for i in range(5):
                consumed.append(i)
                yield i

        results = SerialBackend().map(lambda x: x * 2, producer())
        assert consumed == []
        assert next(results) == 0
        assert consumed == [0]

    def test_serial_backend_never_reads_ahead(self):
        live = []

        def producer():
            for i in range(50):
                live.append(i)
                yield i

        results = SerialBackend().map(lambda x: x, producer())
        assert live == []  # lazy: nothing is read before the first next()
        for i, result in enumerate(results):
            assert result == i
            # the input is never read ahead of the consumer
            assert len(live) == i + 1

    def test_serial_backend_propagates_producer_error(self):
        def producer():
            yield 1
            raise RuntimeError("disk on fire")

        results = SerialBackend().map(lambda x: x, producer())
        assert next(results) == 1
        with pytest.raises(RuntimeError, match="disk on fire"):
            next(results)

    def test_serial_backend_propagates_consumer_error(self):
        def boom(x):
            raise ValueError("analysis failed")

        results = SerialBackend().map(boom, iter(range(100)))
        with pytest.raises(ValueError, match="analysis failed"):
            next(results)

    def test_process_backend_streams_in_order(self, small_trace):
        windows = list(iter_windows(small_trace, 20_000))
        serial = [analyze_window(w) for w in windows]
        streamed = list(ProcessBackend(2).map(analyze_window, windows))
        assert [r.aggregates for r in streamed] == [r.aggregates for r in serial]

    def test_process_backend_downgrade_logged(self, small_trace, caplog):
        window = next(iter_windows(small_trace, 20_000))
        with caplog.at_level(logging.INFO, logger="repro.streaming.parallel"):
            results = list(ProcessBackend(4).map(analyze_window, [window]))
        assert len(results) == 1
        assert any("downgrading to serial" in message for message in caplog.messages)

    def test_serial_backend_surfaces_late_producer_error(self):
        """The serial map reads its input in the consumer's own thread: a
        blocked input blocks ``next()``, and the input's late error surfaces
        there instead of being dropped."""
        release = threading.Event()

        def producer():
            yield 0
            release.wait(30)  # the "input iterator blocked in I/O" case
            raise RuntimeError("late disk failure")

        results = SerialBackend().map(lambda x: x, producer())
        assert next(results) == 0
        timer = threading.Timer(0.2, release.set)
        timer.start()
        try:
            with pytest.raises(RuntimeError, match="late disk failure"):
                next(results)
        finally:
            timer.cancel()

    def test_payload_transport_validation(self):
        from repro.streaming.shm import TRANSPORT_NAMES

        assert ProcessBackend(2).payload_transport in TRANSPORT_NAMES
        assert get_backend("process", n_workers=2, payload_transport="pickle").payload_transport == "pickle"
        assert get_backend(None, n_workers=2, payload_transport="pickle").payload_transport == "pickle"
        with pytest.raises(ValueError, match="payload_transport"):
            get_backend("serial", payload_transport="shm")
        with pytest.raises(ValueError, match="ProcessBackend constructor"):
            get_backend(SerialBackend(), payload_transport="shm")
        with pytest.raises(ValueError, match="unknown payload_transport"):
            ProcessBackend(2, payload_transport="carrier-pigeon")

    def test_process_map_returns_one_result_per_window(self, small_trace):
        windows = list(iter_windows(small_trace, 20_000))
        results = list(ProcessBackend(2).map(analyze_window, windows))
        assert [r.aggregates for r in results] == [analyze_window(w).aggregates for w in windows]

    @pytest.mark.parametrize("backend", [None, *BACKEND_NAMES])
    @pytest.mark.parametrize("n_workers,error", [
        (0, ValueError),
        (-2, ValueError),
        (True, TypeError),
        (1.5, TypeError),
    ])
    def test_bad_worker_count_rejected_on_every_backend(self, backend, n_workers, error):
        with pytest.raises(error, match="n_workers"):
            get_backend(backend, n_workers=n_workers)


class TestBackendEquivalence:
    @pytest.fixture(scope="class")
    def serial_analysis(self, small_trace):
        return analyze_trace(small_trace, 20_000, backend="serial")

    @pytest.mark.parametrize("backend,kwargs", [
        ("process", {"n_workers": 2}),
        ("serial", {"keep_windows": False}),
    ])
    def test_pooled_bit_identical(self, small_trace, serial_analysis, backend, kwargs):
        analysis = analyze_trace(small_trace, 20_000, backend=backend, **kwargs)
        assert analysis.n_windows == serial_analysis.n_windows
        for quantity in QUANTITY_NAMES:
            expected = serial_analysis.pooled(quantity)
            got = analysis.pooled(quantity)
            assert np.array_equal(expected.bin_edges, got.bin_edges)
            assert np.array_equal(expected.values, got.values)
            assert np.array_equal(expected.sigma, got.sigma)
            assert expected.total == got.total

    def test_chunked_input_bit_identical(self, small_trace, serial_analysis):
        analysis = analyze_trace(
            small_trace, 20_000, backend="serial", chunk_packets=7_000, keep_windows=False
        )
        for quantity in QUANTITY_NAMES:
            assert np.array_equal(
                serial_analysis.pooled(quantity).values, analysis.pooled(quantity).values
            )

    def test_streamed_matches_legacy_aggregation(self, small_trace, serial_analysis):
        """The single-pass fold agrees with the stacked two-pass aggregation."""
        legacy = analyze_trace(small_trace, 20_000)
        for quantity in QUANTITY_NAMES:
            streamed = serial_analysis.pooled(quantity)
            windows = [w.pooled(quantity) for w in legacy.windows]
            from repro.analysis.pooling import aggregate_pooled

            stacked = aggregate_pooled(windows)
            np.testing.assert_allclose(streamed.values, stacked.values, rtol=1e-12)
            np.testing.assert_allclose(streamed.sigma, stacked.sigma, rtol=1e-9, atol=1e-15)

    def test_direct_construction_bit_identical_to_engine(self, small_trace, serial_analysis):
        """A WindowedAnalysis built by hand from the same window results
        pools through the same fold — and therefore compares equal."""
        from repro.streaming.pipeline import WindowedAnalysis

        results = [analyze_window(w) for w in iter_windows(small_trace, 20_000)]
        direct = WindowedAnalysis(
            n_valid=20_000, windows=tuple(results), quantities=QUANTITY_NAMES
        )
        for quantity in QUANTITY_NAMES:
            assert np.array_equal(
                direct.pooled(quantity).values, serial_analysis.pooled(quantity).values
            )
            assert np.array_equal(
                direct.pooled(quantity).sigma, serial_analysis.pooled(quantity).sigma
            )
        assert direct == serial_analysis


class TestStreamingAnalyzeTrace:
    def test_bounded_memory_on_disk(self, small_trace, tmp_path):
        """An on-disk trace bigger than the chunk budget is analysed without
        ever buffering more than a chunk plus one window of packets."""
        chunk_packets = 6_000
        n_valid = 5_000
        path = save_trace_sharded(small_trace, tmp_path / "big", shard_packets=10_000)
        analysis = analyze_trace(
            path, n_valid, backend="serial", chunk_packets=chunk_packets, keep_windows=False
        )
        stats = analysis.engine_stats
        assert stats["backend"] == "serial"
        # the trace (120k packets) vastly exceeds the buffer bound:
        # one chunk + the leftover of an incomplete window (< window span)
        window_span = 2 * n_valid  # generous: windows here are all-valid
        assert stats["max_buffered_packets"] <= chunk_packets + window_span
        assert stats["max_buffered_packets"] < small_trace.n_packets / 4
        # bounded-memory runs do not retain per-window results...
        assert analysis.windows == ()
        # ...but every cross-window product is still available
        assert analysis.n_windows == small_trace.n_valid // n_valid
        assert len(analysis.aggregates_table()) == analysis.n_windows
        assert analysis.merged_histogram("source_fanout").total > 0
        assert analysis.dmax("link_packets") >= 1
        fit = analysis.fit_zipf_mandelbrot("source_fanout")
        assert 1.0 < fit.alpha < 4.0

    def test_path_input_v1(self, small_trace, tmp_path):
        path = save_trace(small_trace, tmp_path / "t.npz")
        from_path = analyze_trace(path, 30_000)
        in_memory = analyze_trace(small_trace, 30_000)
        for quantity in QUANTITY_NAMES:
            assert np.array_equal(
                from_path.pooled(quantity).values, in_memory.pooled(quantity).values
            )

    def test_chunk_iterator_input(self, small_trace):
        analysis = analyze_trace(small_trace.iter_chunks(9_000), 30_000)
        assert analysis.n_windows == small_trace.n_valid // 30_000

    def test_chunk_packets_rechunks_iterable_input(self, small_trace):
        """Regression: chunk_packets must bound the buffer even when the
        caller's own chunks are far larger than the budget."""
        oversized = small_trace.iter_chunks(60_000)  # two huge chunks
        analysis = analyze_trace(
            oversized, 10_000, backend="serial", chunk_packets=5_000, keep_windows=False
        )
        stats = analysis.engine_stats
        assert stats["max_buffered_packets"] <= 5_000 + 2 * 10_000
        assert stats["max_buffered_packets"] < 60_000
        baseline = analyze_trace(small_trace, 10_000)
        for quantity in QUANTITY_NAMES:
            assert np.array_equal(
                baseline.pooled(quantity).values, analysis.pooled(quantity).values
            )

    def test_invalid_trace_type_rejected(self):
        with pytest.raises(TypeError):
            analyze_trace(42, 100)

    @pytest.mark.parametrize("chunk_packets, error", [
        (0, ValueError), (True, TypeError), (1.5, TypeError),
    ])
    @pytest.mark.parametrize("kind", ["memory", "path", "iterable"])
    def test_bad_chunk_packets_rejected_for_every_input(
        self, small_trace, tmp_path, kind, chunk_packets, error
    ):
        """One check covers every input kind: an in-memory trace must not run
        a bad chunk size as 1-packet chunks."""
        trace = {
            "memory": lambda: small_trace,
            "path": lambda: save_trace_sharded(small_trace, tmp_path / "t", shard_packets=60_000),
            "iterable": lambda: small_trace.iter_chunks(60_000),
        }[kind]()
        with pytest.raises(error, match="chunk_packets"):
            analyze_trace(trace, 30_000, chunk_packets=chunk_packets)

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError, match="no complete windows"):
            analyze_trace(iter([]), 100)

    def test_keep_windows_is_the_retention_switch(self, small_trace):
        kept = analyze_trace(small_trace, 20_000, chunk_packets=7_000)
        assert len(kept.windows) == kept.n_windows
        dropped = analyze_trace(small_trace, 20_000, chunk_packets=7_000, keep_windows=False)
        assert dropped.windows == ()
        assert dropped == kept


class TestWindowedAnalysisProducts:
    def test_pickle_roundtrip(self, small_trace):
        windows = tuple(analyze_window(w) for w in iter_windows(small_trace, 30_000))
        analysis = WindowedAnalysis(n_valid=30_000, windows=windows, quantities=QUANTITY_NAMES)
        restored = pickle.loads(pickle.dumps(analysis))
        assert restored == analysis
        assert np.array_equal(
            restored.pooled("source_fanout").values, analysis.pooled("source_fanout").values
        )

    def test_no_mutable_dataclass_cache_field(self):
        """Regression: the old `_pooled_cache` dict *field* leaked shared
        state into pickles and equality; no cache may be a field."""
        import dataclasses

        field_names = {f.name for f in dataclasses.fields(WindowedAnalysis)}
        assert "_pooled_cache" not in field_names
        assert "_memo" not in field_names

    def test_hand_built_products_match_engine(self, small_trace):
        """A hand-built analysis folds through StreamAnalyzer at construction:
        merged histograms, dmax and the aggregates table match the engine's."""
        engine = analyze_trace(small_trace, 30_000)
        hand_built = WindowedAnalysis(
            n_valid=30_000, windows=engine.windows, quantities=QUANTITY_NAMES
        )
        assert hand_built.engine_stats == {}
        assert hand_built.mode == "exact"
        assert hand_built.aggregates_table() == engine.aggregates_table()
        for quantity in QUANTITY_NAMES:
            mine, theirs = hand_built.merged_histogram(quantity), engine.merged_histogram(quantity)
            assert np.array_equal(mine.degrees, theirs.degrees)
            assert np.array_equal(mine.counts, theirs.counts)
            assert hand_built.dmax(quantity) == max(
                w.histograms[quantity].dmax for w in engine.windows
            )

    def test_hand_built_without_windows_rejected(self):
        with pytest.raises(ValueError, match="no complete windows"):
            WindowedAnalysis(n_valid=100, windows=(), quantities=QUANTITY_NAMES)

    def test_equality_compares_products_not_fields(self, small_trace):
        """Regression: streamed analyses (windows=()) of different traces
        must not compare equal just because the dataclass fields match."""
        other_trace = PacketTrace(small_trace.packets[:60_000])
        a = analyze_trace(small_trace, 20_000, keep_windows=False)
        b = analyze_trace(other_trace, 20_000, keep_windows=False)
        assert a != b
        same = analyze_trace(small_trace, 20_000, backend="serial")
        assert a == same
        assert a != "not an analysis"
        assert len({a, same}) == 1  # hashable, and hash consistent with __eq__

    def test_equality_sees_sigma(self, small_trace):
        a = analyze_trace(small_trace, 20_000, keep_windows=False)
        b = analyze_trace(small_trace, 20_000, keep_windows=False)
        assert a == b
        # forge an analysis whose means match but σ differs: must not be equal
        state = b._stream
        forged_pooled = {
            q: type(p)(bin_edges=p.bin_edges, values=p.values, sigma=p.sigma + 1.0, total=p.total)
            for q, p in state.pooled.items()
        }
        from repro.streaming.pipeline import _StreamState

        forged = WindowedAnalysis(
            n_valid=b.n_valid,
            windows=b.windows,
            quantities=b.quantities,
            _stream=_StreamState(
                n_windows=state.n_windows,
                pooled=forged_pooled,
                merged=state.merged,
                aggregate_rows=state.aggregate_rows,
                stats=state.stats,
            ),
        )
        assert a != forged


class TestStreamAnalyzerDirect:
    def test_incremental_matches_batch(self, small_trace):
        windows = list(iter_windows(small_trace, 20_000))
        analyzer = StreamAnalyzer(20_000, QUANTITY_NAMES)
        for window in windows:
            analyzer.update(analyze_window(window))
        batch = analyze_trace(small_trace, 20_000)
        final = analyzer.result()
        for quantity in QUANTITY_NAMES:
            assert np.array_equal(final.pooled(quantity).values, batch.pooled(quantity).values)

    def test_empty_result_rejected(self):
        with pytest.raises(ValueError, match="no complete windows"):
            StreamAnalyzer(100).result()

    def test_unknown_quantity_rejected(self):
        with pytest.raises(ValueError):
            StreamAnalyzer(100, quantities=("bogus",))

    def test_duplicate_quantity_rejected(self):
        with pytest.raises(ValueError, match="duplicate quantities"):
            StreamAnalyzer(100, quantities=("source_fanout", "source_fanout"))


class TestWindowBatching:
    """The batched execution paths: payload batches, stream batches, pools."""

    def test_iter_batches_groups_in_order(self):
        assert list(iter_batches(range(7), 3)) == [(0, 1, 2), (3, 4, 5), (6,)]
        assert list(iter_batches([], 4)) == []
        with pytest.raises(ValueError):
            list(iter_batches([1], 0))

    @pytest.mark.parametrize("mode", ["exact", "sketch"])
    @pytest.mark.parametrize("backend,kwargs", [
        ("serial", {}),
        ("process", {"n_workers": 2}),
        ("serial", {"chunk_packets": 40_000}),
    ])
    def test_batch_size_never_changes_results(self, small_trace, monkeypatch, backend, kwargs, mode):
        # 10_000 packs every window into one task, which the process map
        # then runs in-process
        reference = analyze_trace(small_trace, 20_000, mode=mode, keep_windows=False)
        for batch in (1, 3, 10_000):
            monkeypatch.setattr(pipeline, "BATCH_WINDOWS", batch)
            analysis = analyze_trace(
                small_trace, 20_000, backend=backend, mode=mode, keep_windows=False, **kwargs
            )
            assert analysis == reference, batch
            assert analysis.sketch == reference.sketch, batch

    def test_process_path_ships_pooled_vectors(self, small_trace):
        windows = list(iter_windows(small_trace, 20_000))
        pairs = list(iter_window_results(ProcessBackend(2), windows))
        assert len(pairs) == len(windows)
        for (result, pooled), expected in zip(pairs, map(analyze_window, windows)):
            assert result.aggregates == expected.aggregates
            assert pooled is not None and set(pooled) == set(QUANTITY_NAMES)

    def test_process_path_pools_only_requested_quantities(self, small_trace):
        windows = list(iter_windows(small_trace, 20_000))
        pairs = list(
            iter_window_results(ProcessBackend(2), windows, quantities=("source_fanout",))
        )
        assert all(set(pooled) == {"source_fanout"} for _, pooled in pairs)
        restricted = analyze_trace(
            small_trace, 20_000, backend="process", n_workers=2,
            quantities=("source_fanout",), keep_windows=False,
        )
        serial = analyze_trace(
            small_trace, 20_000, quantities=("source_fanout",), keep_windows=False
        )
        assert restricted == serial

    def test_serial_path_defers_pooling(self, small_trace):
        windows = list(iter_windows(small_trace, 20_000))
        pairs = list(iter_window_results(SerialBackend(), windows))
        assert all(pooled is None for _, pooled in pairs)

    def test_too_few_windows_downgrade_logged(self, small_trace, caplog):
        window = next(iter_windows(small_trace, 20_000))
        with caplog.at_level(logging.INFO, logger="repro.streaming.parallel"):
            pairs = list(iter_window_results(ProcessBackend(4), [window]))
        assert len(pairs) == 1 and pairs[0][1] is None
        assert any("downgrading to serial" in message for message in caplog.messages)

    def test_single_worker_process_path_analyses_in_process(self, small_trace, caplog):
        windows = list(iter_windows(small_trace, 20_000))
        with caplog.at_level(logging.DEBUG, logger="repro.streaming.pipeline"):
            pairs = list(iter_window_results(ProcessBackend(1), windows))
        assert all(pooled is None for _, pooled in pairs)
        assert any("in-process" in message for message in caplog.messages)
        for (result, _), expected in zip(pairs, map(analyze_window, windows)):
            assert result.aggregates == expected.aggregates

    def test_process_fold_reads_a_bounded_distance_ahead(self, small_trace):
        windows = list(iter_windows(small_trace, 1_000))
        produced = 0

        def producer():
            nonlocal produced
            for window in windows:
                produced += 1
                yield window

        workers = 2
        max_ahead = folded = 0
        pairs = iter_window_results(ProcessBackend(workers), producer())
        for folded, ((result, _), expected) in enumerate(zip(pairs, windows), start=1):
            assert result.aggregates == analyze_window(expected).aggregates
            max_ahead = max(max_ahead, produced - folded)
        assert folded == len(windows) > 4 * (2 * workers + 1) * BATCH_WINDOWS
        assert max_ahead <= (2 * workers + 1) * BATCH_WINDOWS

    def test_effective_workers(self):
        backend = ProcessBackend(4)
        assert backend.effective_workers(0) == 0
        assert backend.effective_workers(1) == 1
        assert backend.effective_workers(100) == 4


class TestSharedPools:
    def test_shared_pool_reused_across_maps(self):
        first = shared_pool(2)
        assert shared_pool(2) is first
        shutdown_shared_pools()
        assert shared_pool(2) is not first
        shutdown_shared_pools()

    def test_failed_map_discards_pool(self):
        backend = ProcessBackend(2)
        before = shared_pool(2)
        with pytest.raises(ZeroDivisionError):
            list(backend.map(_reciprocal, [1, 2, 0, 4]))
        # the poisoned pool was dropped; the next map starts a fresh one
        assert list(backend.map(_reciprocal, [1, 2, 4, 8])) == [1.0, 0.5, 0.25, 0.125]
        assert shared_pool(2) is not before
        shutdown_shared_pools()

    def test_usable_cpu_count_positive(self):
        assert 1 <= usable_cpu_count() <= (1 << 12)
        assert default_worker_count() >= 1

    def test_concurrent_map_survives_neighbour_failure(self):
        """Regression: a failed map used to terminate the shared pool while a
        concurrent map (daemon job + campaign worker in one process) was
        still iterating it, poisoning the innocent caller's results."""
        shutdown_shared_pools()
        backend = ProcessBackend(2)
        results: list = []
        raised: list = []
        start = threading.Barrier(2)

        def innocent():
            start.wait()
            results.extend(backend.map(_slow_square, list(range(40))))

        def failing():
            start.wait()
            time.sleep(0.05)  # let the innocent map get tasks in flight first
            try:
                list(backend.map(_reciprocal, [1, 0]))
            except ZeroDivisionError:
                raised.append(True)

        threads = [threading.Thread(target=innocent), threading.Thread(target=failing)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads), "a map never finished"
        assert raised == [True]
        assert results == [x * x for x in range(40)]
        shutdown_shared_pools()

    def test_failed_map_retires_generation_only_when_idle(self):
        from repro.streaming import parallel as parallel_module

        shutdown_shared_pools()
        entry = parallel_module._checkout_shared_pool(2)
        assert entry.active == 1 and not entry.retired
        assert parallel_module._checkout_shared_pool(2) is entry and entry.active == 2
        parallel_module._checkin_shared_pool(entry, failed=True)
        assert entry.retired and entry.active == 1
        # the retired generation left the cache: new maps get a fresh pool
        fresh = parallel_module._checkout_shared_pool(2)
        assert fresh is not entry
        # ...but the retired pool still serves its remaining in-flight map
        assert entry.pool.apply(_reciprocal, (2,)) == 0.5
        parallel_module._checkin_shared_pool(entry, failed=False)  # last claim out
        with pytest.raises(ValueError):
            entry.pool.apply(_reciprocal, (2,))  # now terminated
        parallel_module._checkin_shared_pool(fresh, failed=False)
        shutdown_shared_pools()


class TestWorkerCountPolicy:
    """The automatic worker count must scale its reserve to the machine."""

    @pytest.mark.parametrize(
        "cpus,expected",
        [(1, 1), (2, 2), (3, 2), (4, 2), (6, 4), (8, 6), (16, 14), (32, 16)],
    )
    def test_reserve_scales_with_cpu_count(self, monkeypatch, cpus, expected):
        monkeypatch.setattr("repro.streaming.parallel.usable_cpu_count", lambda: cpus)
        assert default_worker_count() == expected

    def test_small_boxes_are_not_starved(self, monkeypatch):
        # regression: a flat `cpus - reserve` downgraded 2-3-CPU machines to
        # serial execution even though parallel hardware existed
        for cpus in (2, 3):
            monkeypatch.setattr(
                "repro.streaming.parallel.usable_cpu_count", lambda cpus=cpus: cpus
            )
            assert default_worker_count() > 1


def _reciprocal(x):
    return 1.0 / x


def _slow_square(x):
    time.sleep(0.01)
    return x * x


class TestAnalysisColumnReads:
    def test_column_subset_skips_time_and_size(self, small_trace, tmp_path):
        path = save_trace_sharded(small_trace, tmp_path / "sharded", shard_packets=30_000)
        lean = np.concatenate(
            [c.packets for c in iter_trace_chunks(path, columns=ANALYSIS_COLUMNS)]
        )
        full = np.concatenate([c.packets for c in iter_trace_chunks(path)])
        for column in ("src", "dst", "valid"):
            assert np.array_equal(lean[column], full[column])
        assert not lean["time"].any() and not lean["size"].any()

    def test_column_subset_v1(self, small_trace, tmp_path):
        path = save_trace(small_trace, tmp_path / "trace.npz")
        lean = np.concatenate(
            [c.packets for c in iter_trace_chunks(path, columns=ANALYSIS_COLUMNS)]
        )
        assert np.array_equal(lean["src"], small_trace.packets["src"])
        assert not lean["time"].any()

    def test_unknown_column_rejected(self, small_trace, tmp_path):
        path = save_trace(small_trace, tmp_path / "trace.npz")
        with pytest.raises(ValueError, match="unknown trace columns"):
            list(iter_trace_chunks(path, columns=("src", "nope")))

    def test_path_analysis_identical_to_in_memory(self, small_trace, tmp_path):
        path = save_trace_sharded(small_trace, tmp_path / "sharded", shard_packets=25_000)
        from_disk = analyze_trace(path, 20_000, keep_windows=False)
        in_memory = analyze_trace(small_trace, 20_000, keep_windows=False)
        assert from_disk == in_memory



#: Every input kind ``analyze_trace`` accepts; each becomes one chunk stream
#: cut by one PushWindower, so each must give the in-memory answer.
_INPUT_KINDS = ("in-memory", "in-memory-chunked", "chunk-iterable", "v1-file", "npz-shards", "npy-shards")


class TestEveryInputKind:
    N_VALID = 8_000

    @pytest.fixture(scope="class")
    def trace(self, small_trace):
        return small_trace.slice(0, 60_000)

    @pytest.fixture(scope="class")
    def stored(self, trace, tmp_path_factory):
        root = tmp_path_factory.mktemp("input-kinds")
        return {
            "v1-file": save_trace(trace, root / "v1.npz"),
            "npz-shards": save_trace_sharded(trace, root / "npz", shard_packets=17_000),
            "npy-shards": save_trace_sharded(trace, root / "npy", shard_packets=17_000, layout="npy"),
        }

    def _analyze(self, kind, trace, stored, mode):
        if kind == "in-memory":
            source = trace
        elif kind == "chunk-iterable":
            source = trace.iter_chunks(13_000)
        else:
            source = stored.get(kind, trace)
        chunk_packets = 11_000 if kind == "in-memory-chunked" else None
        return analyze_trace(source, self.N_VALID, mode=mode, chunk_packets=chunk_packets)

    @pytest.mark.parametrize("mode", MODE_NAMES)
    @pytest.mark.parametrize("kind", _INPUT_KINDS)
    def test_one_answer_and_one_stats_shape(self, trace, stored, kind, mode):
        reference = self._analyze("in-memory", trace, stored, mode)
        analysis = self._analyze(kind, trace, stored, mode)
        assert analysis.n_windows == reference.n_windows > 1
        for quantity in reference.quantities:
            mine, theirs = reference.pooled(quantity), analysis.pooled(quantity)
            assert mine.values.tobytes() == theirs.values.tobytes(), quantity
            assert mine.sigma.tobytes() == theirs.sigma.tobytes(), quantity
            merged, other = reference.merged_histogram(quantity), analysis.merged_histogram(quantity)
            assert merged.degrees.tobytes() == other.degrees.tobytes(), quantity
            assert merged.counts.tobytes() == other.counts.tobytes(), quantity
        assert analysis.aggregates_table() == reference.aggregates_table()
        assert analysis.engine_stats.keys() == reference.engine_stats.keys()
        assert {"max_buffered_packets", "n_chunks"} <= set(analysis.engine_stats)

    def test_npy_chunks_are_read_only_maps(self, trace, stored):
        chunks = list(iter_trace_chunks(stored["npy-shards"]))
        assert len(chunks) == 4
        for chunk in chunks:
            assert isinstance(chunk.packets.base, np.memmap)
            assert not chunk.packets.flags.writeable
        loaded = load_trace(stored["npy-shards"]).packets
        assert loaded.flags.writeable and not isinstance(loaded.base, np.memmap)
        assert loaded.tobytes() == trace.packets.tobytes()

class TestStreamAnalyzerMergedDense:
    def test_merged_histogram_matches_chained_merges(self, small_trace):
        windows = list(iter_windows(small_trace, 20_000))
        results = [analyze_window(w) for w in windows]
        analyzer = StreamAnalyzer(20_000, keep_windows=False)
        for result in results:
            analyzer.update(result)
        for quantity in QUANTITY_NAMES:
            chained = results[0].histograms[quantity]
            for result in results[1:]:
                chained = chained.merge(result.histograms[quantity])
            streamed = analyzer.merged_histogram(quantity)
            assert np.array_equal(streamed.degrees, chained.degrees)
            assert np.array_equal(streamed.counts, chained.counts)
