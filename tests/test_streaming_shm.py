"""Shared-memory payload transport and ``npy``-layout trace reads.

Pins the tentpole guarantees of the zero-copy path:

* :func:`repro.streaming.shm.publish_payloads` /
  :func:`~repro.streaming.shm.attached_payloads` round-trip column bytes
  exactly, ship references that pickle small, and leave no segment behind;
* pickle and shm transports produce ``tobytes()``-identical pooled vectors,
  aggregates, and alarm sequences on every surface that maps windows;
* segments leaked by a SIGKILLed creator are reaped at the next publish
  (real-process test, same pattern as the campaign fleet suite);
* memory-mapped ``npy``-layout shards analyse bit-identically on every backend.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import time
from pathlib import Path

import numpy as np
import pytest

import repro.streaming.shm as shm_mod
from repro.streaming.kernel import window_payload
from repro.streaming.packet import PACKET_DTYPE, PacketTrace
from repro.streaming.parallel import ProcessBackend, shutdown_shared_pools
from repro.streaming.pipeline import StreamAnalyzer, analyze_trace, fold_windows, iter_window_results
from repro.streaming.trace_io import (
    LAYOUT_NAMES,
    iter_trace_chunks,
    load_trace,
    save_trace_sharded,
)
from repro.streaming.window import iter_windows

pytestmark = pytest.mark.skipif(
    not shm_mod.shm_supported(), reason="multiprocessing.shared_memory unavailable"
)


def _mixed_trace(n: int = 40_000, n_ids: int = 700, seed: int = 5) -> PacketTrace:
    """A trace with ~10% invalid packets, so window payloads carry a valid column."""
    rng = np.random.default_rng(seed)
    return PacketTrace.from_arrays(
        rng.integers(0, n_ids, n),
        rng.integers(0, n_ids, n),
        valid=rng.random(n) < 0.9,
    )


def _repro_segments() -> list[str]:
    """Names of live repro shared-memory segments on this machine."""
    if not os.path.isdir("/dev/shm"):  # pragma: no cover - non-Linux
        return []
    return [
        name for name in os.listdir("/dev/shm")
        if name.startswith(shm_mod.SEGMENT_PREFIX + "_")
    ]


def _assert_bit_identical(reference, candidate) -> None:
    """Pooled vectors, σ, and aggregates of two analyses match byte for byte."""
    for quantity in reference.quantities:
        mine, theirs = reference.pooled(quantity), candidate.pooled(quantity)
        assert mine.values.tobytes() == theirs.values.tobytes(), quantity
        assert mine.sigma.tobytes() == theirs.sigma.tobytes(), quantity
        assert mine.total == theirs.total
    assert reference.aggregates_table() == candidate.aggregates_table()


class TestPublishAttach:
    def test_round_trip_views_equal_columns(self):
        trace = _mixed_trace()
        payloads = [window_payload(w) for w in iter_windows(trace, 5_000)]
        all_valid = [window_payload(w) for w in iter_windows(_all_valid_trace(), 4_000)]
        assert any(p[2] is not None for p in payloads)  # mixed traces ship valid
        assert all(p[2] is None for p in all_valid)  # all-valid windows do not
        published = shm_mod.publish_payloads(payloads + all_valid)
        try:
            assert published.segment in _repro_segments()
            assert len(published.refs) == len(payloads) + len(all_valid)
            with shm_mod.attached_payloads() as resolve:
                for ref, (src, dst, valid) in zip(published.refs, payloads + all_valid):
                    view_src, view_dst, view_valid = resolve(ref)
                    assert np.array_equal(view_src, src)
                    assert np.array_equal(view_dst, dst)
                    assert not view_src.flags.writeable
                    if valid is None:
                        assert view_valid is None
                    else:
                        assert np.array_equal(view_valid, valid)
        finally:
            published.close()
        assert published.segment not in _repro_segments()

    def test_refs_pickle_small(self):
        # the point of the transport: task payload size is independent of
        # window size — a reference is a few hundred bytes, not megabytes
        trace = _mixed_trace(200_000, seed=6)
        payloads = [window_payload(w) for w in iter_windows(trace, 90_000)]
        with shm_mod.publish_payloads(payloads) as published:
            for ref in published.refs:
                assert len(pickle.dumps(ref)) < 1_000
            assert published.nbytes > 1_000_000

    def test_close_is_idempotent(self):
        payloads = [window_payload(next(iter_windows(_mixed_trace(3_000), 1_000)))]
        published = shm_mod.publish_payloads(payloads)
        published.close()
        published.close()
        assert published.segment not in _repro_segments()

    def test_empty_publish(self):
        with shm_mod.publish_payloads([]) as published:
            assert published.refs == ()
            assert published.segment in _repro_segments()
        assert published.segment not in _repro_segments()


def _all_valid_trace(n: int = 20_000, n_ids: int = 500, seed: int = 7) -> PacketTrace:
    rng = np.random.default_rng(seed)
    return PacketTrace.from_arrays(rng.integers(0, n_ids, n), rng.integers(0, n_ids, n))


class TestTransportEquivalence:
    @pytest.fixture(scope="class")
    def trace(self):
        return _mixed_trace()

    @pytest.fixture(scope="class")
    def serial(self, trace):
        return analyze_trace(trace, 4_000)

    @pytest.mark.parametrize("transport", shm_mod.TRANSPORT_NAMES)
    def test_pooled_bit_identical_across_transports(self, trace, serial, transport):
        parallel = analyze_trace(
            trace, 4_000, backend=ProcessBackend(2, payload_transport=transport)
        )
        assert parallel.engine_stats["payload_transport"] == transport
        _assert_bit_identical(serial, parallel)
        shutdown_shared_pools()

    def test_sketch_mode_bit_identical_across_transports(self, trace):
        runs = [
            analyze_trace(
                trace, 4_000, mode="sketch",
                backend=ProcessBackend(2, payload_transport=transport),
            )
            for transport in shm_mod.TRANSPORT_NAMES
        ]
        _assert_bit_identical(runs[0], runs[1])
        shutdown_shared_pools()

    def test_detection_alarms_identical_across_transports(self):
        from repro.detect import DETECTOR_NAMES
        from repro.scenarios import analyze_scenario

        runs = [
            analyze_scenario(
                "flash-crowd", 2_000, seed=1, detectors=DETECTOR_NAMES,
                backend=ProcessBackend(2, payload_transport=transport),
            )
            for transport in shm_mod.TRANSPORT_NAMES
        ]
        assert runs[0].detection.alarms == runs[1].detection.alarms
        assert runs[0].detection.alarms  # the scenario does raise alarms
        _assert_bit_identical(runs[0].analysis, runs[1].analysis)
        shutdown_shared_pools()

    def test_no_segments_survive_the_fold(self, trace):
        analyze_trace(trace, 4_000, backend=ProcessBackend(2, payload_transport="shm"))
        assert _repro_segments() == []
        shutdown_shared_pools()


def _own_segments() -> list[str]:
    """Live segments created by this process."""
    prefix = f"{shm_mod.SEGMENT_PREFIX}_{os.getpid()}_"
    return [name for name in _repro_segments() if name.startswith(prefix)]


class _FailingFolder(StreamAnalyzer):
    def update(self, result, *, pooled=None):
        raise RuntimeError("folder failed")


class TestSegmentLifecycle:
    """Each batch's segment dies with the fold, however the fold ends."""

    @pytest.fixture(scope="class")
    def trace(self):
        return _mixed_trace()

    def test_no_segment_survives_an_abandoned_fold(self, trace):
        pairs = iter_window_results(
            ProcessBackend(2, payload_transport="shm"), iter_windows(trace, 1_000)
        )
        next(pairs)
        assert _own_segments()  # batches in flight are published
        pairs.close()
        assert _own_segments() == []
        shutdown_shared_pools()

    def test_no_segment_survives_a_failing_folder(self, trace):
        with pytest.raises(RuntimeError, match="folder failed"):
            fold_windows(
                ProcessBackend(2, payload_transport="shm"),
                iter_windows(trace, 1_000),
                _FailingFolder(1_000),
            )
        assert _own_segments() == []
        shutdown_shared_pools()


class TestReaper:
    def test_creator_pid_parsing(self):
        name = shm_mod._segment_name()
        assert shm_mod._creator_pid(name) == os.getpid()
        assert shm_mod._creator_pid("repro_shm_notanumber_0_ab") is None
        assert shm_mod._creator_pid("unrelated_file") is None

    def test_reaper_ignores_live_creators(self):
        payloads = [window_payload(next(iter_windows(_mixed_trace(3_000), 1_000)))]
        with shm_mod.publish_payloads(payloads) as published:
            assert shm_mod.reap_orphaned_segments() == 0
            assert published.segment in _repro_segments()

    def test_sigkilled_creator_segment_is_reaped(self, tmp_path):
        # real-process leak: the creator dies by SIGKILL before its finally
        # (and, fleet-style, without its resource tracker cleaning up) — the
        # next publish on the machine must collect the orphan
        out = tmp_path / "segment.txt"
        ctx = multiprocessing.get_context("fork")
        victim = ctx.Process(target=_leaky_creator, args=(str(out),))
        victim.start()
        victim.join(timeout=60)
        assert not victim.is_alive(), "leaky creator never died"
        assert victim.exitcode == -signal.SIGKILL
        segment = out.read_text(encoding="utf-8").strip()
        assert segment in _repro_segments(), "victim did not leak its segment"

        payloads = [window_payload(next(iter_windows(_mixed_trace(3_000), 1_000)))]
        with shm_mod.publish_payloads(payloads):  # implicit reap on publish
            assert segment not in _repro_segments()

    def test_reap_counts_and_unlinks_dead_creator_segment(self):
        from multiprocessing import resource_tracker, shared_memory

        # forge an orphan: a segment named for a pid that is already dead
        ctx = multiprocessing.get_context("fork")
        ghost = ctx.Process(target=_noop)
        ghost.start()
        ghost.join(timeout=30)
        assert not _pid_alive(ghost.pid)
        name = f"{shm_mod.SEGMENT_PREFIX}_{ghost.pid}_0_deadbeef"
        segment = shared_memory.SharedMemory(create=True, size=64, name=name)
        resource_tracker.unregister(segment._name, "shared_memory")
        segment.close()
        assert name in _repro_segments()
        assert shm_mod.reap_orphaned_segments() >= 1
        assert name not in _repro_segments()


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def _noop() -> None:
    pass


def _leaky_creator(out_path: str) -> None:
    """Create a segment, hide it from the (shared) tracker, die by SIGKILL."""
    from multiprocessing import resource_tracker

    payload = window_payload(next(iter_windows(_mixed_trace(2_000), 500)))
    published = shm_mod.publish_payloads([payload])
    # a fork'd child shares the parent's resource tracker; unregister so the
    # "tracker died with the process group" fleet scenario is reproduced
    resource_tracker.unregister(published._shm._name, "shared_memory")
    Path(out_path).write_text(published.segment, encoding="utf-8")
    os.kill(os.getpid(), signal.SIGKILL)
    time.sleep(30)  # pragma: no cover - SIGKILL fires first


class TestNpyLayout:
    @pytest.fixture(scope="class")
    def trace(self):
        return _mixed_trace(60_000, seed=9)

    def test_npy_layout_round_trips(self, trace, tmp_path):
        path = save_trace_sharded(trace, tmp_path / "npy", shard_packets=17_000, layout="npy")
        assert load_trace(path).packets.tobytes() == trace.packets.tobytes()

    def test_mapped_analysis_bit_identical_on_every_backend(self, trace, tmp_path):
        path = save_trace_sharded(trace, tmp_path / "npy", shard_packets=17_000, layout="npy")
        in_memory = analyze_trace(trace, 4_000)
        mapped = analyze_trace(path, 4_000)
        parallel = analyze_trace(path, 4_000, backend=ProcessBackend(2, payload_transport="shm"))
        _assert_bit_identical(in_memory, mapped)
        _assert_bit_identical(in_memory, parallel)
        shutdown_shared_pools()

    def test_unknown_layout_rejected(self, trace, tmp_path):
        with pytest.raises(ValueError, match="unknown shard layout"):
            save_trace_sharded(trace, tmp_path / "bad", layout="parquet")
        assert list(LAYOUT_NAMES) == ["npz", "npy"]

    def test_resave_cleans_other_layout_shards(self, trace, tmp_path):
        path = save_trace_sharded(trace, tmp_path / "t", shard_packets=17_000, layout="npy")
        save_trace_sharded(trace, path, shard_packets=23_000)
        assert not list(Path(path).glob("shard-*.npy"))
        assert load_trace(path).packets.tobytes() == trace.packets.tobytes()

    def test_corrupt_npy_shard_rejected(self, trace, tmp_path):
        path = save_trace_sharded(trace, tmp_path / "npy", shard_packets=17_000, layout="npy")
        np.save(path / "shard-00000.npy", np.zeros(4, dtype=np.float64))
        with pytest.raises(ValueError, match="not PACKET_DTYPE"):
            list(iter_trace_chunks(path))
        assert PACKET_DTYPE.names == ("src", "dst", "time", "size", "valid")
