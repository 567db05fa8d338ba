"""Fault injection against one live daemon that is never restarted.

The module starts a single :class:`~repro.service.server.ServiceDaemon`
in a background thread and fires every fault case at it in sequence:
malformed JSON, out-of-range endpoint ids, an oversized batch, a client
that disconnects mid-stream, and a job config with an unknown
``version``.  The contract under test:

* every fault produces a *structured* JSON error
  (``{"error": {"code", "message"}}``) — never a hung socket or an
  HTML traceback;
* analyzer state is never corrupted — after each fault the next valid
  batch folds cleanly and the running window count advances exactly as
  if the fault had never happened;
* the daemon survives everything — there is no restart between cases,
  and the final shutdown still drains and flushes to the result store.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading

import numpy as np
import pytest

from repro.campaigns.store import ResultStore
from repro.service import CheckpointPolicy, JobConfig, ServiceDaemon

N_VALID = 100
JOB = "faulty"


def _batch_line(n_packets: int, start: int = 0) -> str:
    return json.dumps(
        {
            "src": list(range(start, start + n_packets)),
            "dst": list(range(start + 1, start + n_packets + 1)),
        }
    )


class _DaemonHarness:
    """One resident daemon plus an HTTP helper; shared by every test."""

    def __init__(
        self,
        store_root,
        *,
        config_data: dict | None = None,
        checkpoint_every: int | None = None,
        **daemon_kwargs,
    ) -> None:
        config = JobConfig.from_dict(
            config_data or {"name": JOB, "window": {"n_valid": N_VALID}}
        )
        self.store = ResultStore(store_root)
        if checkpoint_every is not None:
            daemon_kwargs["checkpoint_policy"] = CheckpointPolicy(
                every_batches=checkpoint_every
            )
        self.daemon = ServiceDaemon(
            [config], store=self.store, max_batch_bytes=64 * 1024, **daemon_kwargs
        )
        self.thread = threading.Thread(target=self.daemon.run, daemon=True)
        self.thread.start()
        assert self.daemon.wait_ready(10), "daemon never bound its socket"
        self.port = self.daemon.port

    def request(self, method: str, path: str, body: str | None = None):
        status, parsed, _headers = self.request_full(method, path, body)
        return status, parsed

    def request_full(self, method: str, path: str, body: str | None = None):
        """Like :meth:`request` but also returns the lower-cased response headers."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            try:
                conn.request(method, path, body=body)
            except BrokenPipeError:
                # the daemon already responded (e.g. a 413 for an oversized
                # body) and closed its end before reading everything we
                # sent; the response is waiting in the socket buffer
                pass
            response = conn.getresponse()
            headers = {name.lower(): value for name, value in response.getheaders()}
            return response.status, json.loads(response.read().decode("utf-8")), headers
        finally:
            conn.close()

    def windows_folded(self) -> int:
        status, body = self.request("GET", f"/status/{JOB}")
        assert status == 200
        return body["windows_folded"]

    def assert_fold_advances(self) -> None:
        """One valid batch folds exactly one window — state is intact."""
        before = self.windows_folded()
        status, body = self.request("POST", f"/ingest/{JOB}", _batch_line(N_VALID) + "\n")
        assert status == 200
        assert body["windows_folded_now"] == 1
        assert self.windows_folded() == before + 1

    def shutdown(self) -> None:
        self.daemon.request_shutdown()
        self.thread.join(timeout=30)
        assert not self.thread.is_alive(), "daemon did not exit after shutdown request"


@pytest.fixture(scope="module")
def daemon(tmp_path_factory):
    """THE daemon: started once, survives every fault case below."""
    harness = _DaemonHarness(tmp_path_factory.mktemp("service-store") / "store")
    yield harness
    harness.shutdown()
    # the graceful exit flushed the job's accumulated result to the store;
    # every window folded across (and despite) the fault cases is in it
    key = harness.daemon.registry.get(JOB).config_hash
    payload = harness.store.get(key)
    assert payload["n_windows"] > 0
    assert payload["status"]["errors"] > 0  # the faults were really counted


def _assert_structured_error(status: int, body: dict, code: str) -> None:
    assert status >= 400
    assert set(body) == {"error"}
    assert body["error"]["code"] == code
    assert isinstance(body["error"]["message"], str) and body["error"]["message"]


class TestFaultContainment:
    """Each fault: structured error, uncorrupted state, daemon alive."""

    def test_baseline_fold_works(self, daemon):
        daemon.assert_fold_advances()

    def test_malformed_json_batch(self, daemon):
        status, body = daemon.request("POST", f"/ingest/{JOB}", '{"src": [1,, bad\n')
        _assert_structured_error(status, body, "bad_json")
        daemon.assert_fold_advances()

    def test_malformed_later_line_folds_nothing(self, daemon):
        before = daemon.windows_folded()
        two_lines = _batch_line(N_VALID) + "\nnot json\n"
        status, body = daemon.request("POST", f"/ingest/{JOB}", two_lines)
        _assert_structured_error(status, body, "bad_json")
        assert "line 2" in body["error"]["message"]
        # the valid first line must NOT have been folded: all-or-nothing
        assert daemon.windows_folded() == before
        daemon.assert_fold_advances()

    def test_out_of_range_ids(self, daemon):
        bad = json.dumps({"src": [-7, 1], "dst": [2, 2**40]})
        status, body = daemon.request("POST", f"/ingest/{JOB}", bad + "\n")
        _assert_structured_error(status, body, "bad_batch")
        assert "out-of-range" in body["error"]["message"]
        daemon.assert_fold_advances()

    @pytest.mark.parametrize(
        ("columns", "needle"),
        [
            ({"src": [True, 2], "dst": [3, 4]}, "booleans"),
            ({"src": [1], "dst": [2], "size": [99_999_999_999]}, "out-of-range sizes"),
            ({"src": [1], "dst": [2], "time": [float("nan")]}, "finite"),
        ],
    )
    def test_bad_values_fold_nothing(self, daemon, columns, needle):
        before = daemon.windows_folded()
        status, body = daemon.request("POST", f"/ingest/{JOB}", json.dumps(columns) + "\n")
        _assert_structured_error(status, body, "bad_batch")
        assert needle in body["error"]["message"]
        assert daemon.windows_folded() == before
        daemon.assert_fold_advances()

    @pytest.mark.parametrize(
        ("column", "value", "message"),
        [
            (
                "src",
                "-7",
                "batch line 1: batch column 'src' has out-of-range ids (min -7, max 2); "
                "ids must be in [0, 4294967295]",
            ),
            (
                "size",
                "2147483648",
                "batch line 1: batch column 'size' has out-of-range sizes "
                "(min 64, max 2147483648); sizes must be in [0, 2147483647]",
            ),
            (
                "time",
                "NaN",
                "batch line 1: batch column 'time' must be finite numbers (no NaN or Infinity)",
            ),
        ],
    )
    def test_bad_value_in_a_jobs_feed_line(self, daemon, column, value, message):
        """The layout ``repro jobs feed`` sends draws the same 400 as any other."""
        columns = {
            "src": [0, 1, 2],
            "dst": [1, 2, 0],
            "time": [0.0, 0.25, 1.5],
            "size": [64, 64, 1500],
            "valid": [True, True, False],
        }
        line = json.dumps(columns).replace(
            f'"{column}": [{json.dumps(columns[column][0])}', f'"{column}": [{value}', 1
        )
        assert value in line
        before = daemon.windows_folded()
        status, body = daemon.request("POST", f"/ingest/{JOB}", line + "\n")
        _assert_structured_error(status, body, "bad_batch")
        assert body["error"]["message"] == message
        assert daemon.windows_folded() == before
        daemon.assert_fold_advances()

    @pytest.mark.parametrize("separators", [(", ", ": "), (",", ":")])
    def test_boolean_in_a_numeric_time_column(self, daemon, separators):
        """Both decode paths refuse ``true`` beside numbers in ``time``."""
        columns = {
            "src": [0, 1],
            "dst": [1, 2],
            "time": [True, 0.5],
            "size": [64, 64],
            "valid": [True, True],
        }
        before = daemon.windows_folded()
        line = json.dumps(columns, separators=separators)
        status, body = daemon.request("POST", f"/ingest/{JOB}", line + "\n")
        _assert_structured_error(status, body, "bad_batch")
        assert body["error"]["message"] == (
            "batch line 1: batch column 'time' must be numbers, got booleans"
        )
        assert daemon.windows_folded() == before
        daemon.assert_fold_advances()

    def test_blank_lines_are_skipped(self, daemon):
        """Blank and whitespace-only lines fold nothing and are not counted."""
        before = daemon.windows_folded()
        half = N_VALID // 2
        body = (
            "\n \t\n"
            + _batch_line(half) + "\r\n"
            + "\x0b\x0c\r\n\n"
            + _batch_line(half, start=half) + "\n\n"
        )
        status, reply = daemon.request("POST", f"/ingest/{JOB}", body)
        assert status == 200, reply
        assert reply["batches"] == 2
        assert reply["windows_folded_now"] == 1
        assert daemon.windows_folded() == before + 1

    def test_bad_line_number_counts_non_blank_lines(self, daemon):
        before = daemon.windows_folded()
        body = "\n" + _batch_line(3) + "\n  \n\n" + '{"src": [1], "dst": [true]}' + "\n"
        status, reply = daemon.request("POST", f"/ingest/{JOB}", body)
        _assert_structured_error(status, reply, "bad_batch")
        assert reply["error"]["message"].startswith("batch line 2: ")
        status, reply = daemon.request("POST", f"/ingest/{JOB}", "\r\n\n" + '{"src": [1,' + "\n")
        _assert_structured_error(status, reply, "bad_json")
        assert reply["error"]["message"] == (
            "batch line 1 is not valid JSON: Expecting value: line 1 column 12 (char 11)"
        )
        assert daemon.windows_folded() == before
        daemon.assert_fold_advances()

    def test_compact_feed_pools_like_a_jobs_feed(self, daemon):
        """Any JSON layout of the same batches folds to the same result."""
        rng = np.random.default_rng(7)
        lines = {"canonical": [], "compact": []}
        for _ in range(5):
            n = 250
            batch = {
                "src": rng.integers(0, 300, n).tolist(),
                "dst": rng.integers(0, 300, n).tolist(),
                "time": np.cumsum(rng.exponential(1e-3, n)).tolist(),
                "size": rng.integers(40, 1500, n).tolist(),
                "valid": (rng.random(n) < 0.9).tolist(),
            }
            lines["canonical"].append(json.dumps(batch))
            lines["compact"].append(json.dumps(batch, separators=(",", ":")))
        for name, batch_lines in lines.items():
            config = {"name": name, "window": {"n_valid": N_VALID}}
            assert daemon.request("POST", "/jobs", json.dumps(config))[0] == 200
            for line in batch_lines:
                status, body = daemon.request("POST", f"/ingest/{name}", line + "\n")
                assert status == 200, body
        results = [daemon.daemon.registry.get(name).engine.result() for name in lines]
        assert results[0].n_windows == results[1].n_windows > 0
        for quantity in results[0].quantities:
            mine, theirs = (result.pooled(quantity) for result in results)
            assert mine.values.tobytes() == theirs.values.tobytes()
            assert mine.sigma.tobytes() == theirs.sigma.tobytes()

    def test_wrong_shape_batch(self, daemon):
        bad = json.dumps({"src": [1, 2, 3], "dst": [4]})
        status, body = daemon.request("POST", f"/ingest/{JOB}", bad + "\n")
        _assert_structured_error(status, body, "bad_batch")
        daemon.assert_fold_advances()

    def test_oversized_batch(self, daemon):
        huge = _batch_line(200_000)  # well past the harness's 64 KiB cap
        status, body = daemon.request("POST", f"/ingest/{JOB}", huge + "\n")
        _assert_structured_error(status, body, "batch_too_large")
        daemon.assert_fold_advances()

    def test_mid_stream_disconnect(self, daemon):
        # promise a large body, send a fragment, vanish: the daemon must
        # drop the request without folding the fragment
        before = daemon.windows_folded()
        with socket.create_connection(("127.0.0.1", daemon.port), timeout=10) as raw:
            raw.sendall(
                f"POST /ingest/{JOB} HTTP/1.1\r\n"
                f"Host: 127.0.0.1\r\n"
                f"Content-Length: 50000\r\n\r\n".encode("ascii")
            )
            raw.sendall(_batch_line(10).encode("ascii"))  # a fraction of the promise
        assert daemon.windows_folded() == before
        daemon.assert_fold_advances()

    def test_unknown_config_version(self, daemon):
        config = {"name": "from-the-future", "version": 99}
        status, body = daemon.request("POST", "/jobs", json.dumps(config))
        _assert_structured_error(status, body, "bad_config")
        assert "version" in body["error"]["message"]
        daemon.assert_fold_advances()

    def test_bad_config_schema(self, daemon):
        config = {"name": "typo", "window": {"n_vlaid": 100}}
        status, body = daemon.request("POST", "/jobs", json.dumps(config))
        _assert_structured_error(status, body, "bad_config")
        assert "window.n_vlaid" in body["error"]["message"]

    def test_duplicate_job_rejected(self, daemon):
        config = {"name": JOB, "window": {"n_valid": N_VALID}}
        status, body = daemon.request("POST", "/jobs", json.dumps(config))
        _assert_structured_error(status, body, "duplicate_job")

    def test_unknown_job_ingest(self, daemon):
        status, body = daemon.request("POST", "/ingest/ghost", _batch_line(5) + "\n")
        _assert_structured_error(status, body, "unknown_job")

    def test_unknown_route(self, daemon):
        status, body = daemon.request("GET", "/nope")
        _assert_structured_error(status, body, "not_found")

    def test_post_without_content_length(self, daemon):
        with socket.create_connection(("127.0.0.1", daemon.port), timeout=10) as raw:
            raw.sendall(
                f"POST /ingest/{JOB} HTTP/1.1\r\nHost: x\r\n\r\n".encode("ascii")
            )
            response = b""
            while b"\r\n\r\n" not in response:
                chunk = raw.recv(4096)
                if not chunk:
                    break
                response += chunk
        assert b"411" in response.split(b"\r\n", 1)[0]
        daemon.assert_fold_advances()

    def test_empty_batch_body(self, daemon):
        status, body = daemon.request("POST", f"/ingest/{JOB}", "\n\n")
        _assert_structured_error(status, body, "empty_batch")
        daemon.assert_fold_advances()

    def test_errors_were_counted_not_fatal(self, daemon):
        status, body = daemon.request("GET", f"/status/{JOB}")
        assert status == 200
        assert body["errors"] > 0
        # one daemon served every case in this module: requests_failed
        # piled up while windows kept folding
        status, root = daemon.request("GET", "/status")
        assert root["requests_failed"] > 0
        assert root["jobs"][0]["windows_folded"] > 0


class TestCheckpointFaults:
    """Checkpoint-era injections: corruption, empty resume, replay, write failure.

    Each case runs its own short-lived daemon (restarts are the point here,
    unlike the module-scoped survivor above).
    """

    def test_resume_on_empty_store_is_cold_start(self, tmp_path):
        harness = _DaemonHarness(tmp_path / "store", resume=True, checkpoint_every=1)
        try:
            status, body = harness.request("GET", f"/status/{JOB}")
            assert status == 200
            assert body["resumed_from_seq"] is None
            assert body["windows_folded"] == 0
            harness.assert_fold_advances()
        finally:
            harness.shutdown()

    def test_duplicate_replay_of_acked_batch_is_noop(self, tmp_path):
        harness = _DaemonHarness(tmp_path / "store", checkpoint_every=1)
        try:
            status, body = harness.request(
                "POST", f"/ingest/{JOB}?seq=1", _batch_line(N_VALID) + "\n"
            )
            assert status == 200
            assert body["acked_seq"] == 1 and body["windows_folded"] == 1
            # replaying seq=1 must ack without folding anything again
            status, body = harness.request(
                "POST", f"/ingest/{JOB}?seq=1", _batch_line(N_VALID) + "\n"
            )
            assert status == 200
            assert body["duplicate"] is True
            assert body["windows_folded_now"] == 0
            assert body["windows_folded"] == 1
            assert body["acked_seq"] == 1
        finally:
            harness.shutdown()

    def test_sequence_gap_rejected(self, tmp_path):
        harness = _DaemonHarness(tmp_path / "store")
        try:
            status, body = harness.request(
                "POST", f"/ingest/{JOB}?seq=5", _batch_line(N_VALID) + "\n"
            )
            _assert_structured_error(status, body, "sequence_gap")
            assert status == 409
            assert harness.windows_folded() == 0
            harness.assert_fold_advances()
        finally:
            harness.shutdown()

    def test_bad_seq_rejected(self, tmp_path):
        harness = _DaemonHarness(tmp_path / "store")
        try:
            for bad in ("0", "-3", "nope"):
                status, body = harness.request(
                    "POST", f"/ingest/{JOB}?seq={bad}", _batch_line(N_VALID) + "\n"
                )
                _assert_structured_error(status, body, "bad_seq")
            harness.assert_fold_advances()
        finally:
            harness.shutdown()

    def test_backpressure_429_with_retry_after(self, tmp_path):
        store_root = tmp_path / "store"
        harness = _DaemonHarness(store_root, max_buffered_packets=30)
        try:
            # 50 packets buffer without completing a window (N_VALID = 100)
            status, body = harness.request(
                "POST", f"/ingest/{JOB}?seq=1", _batch_line(50) + "\n"
            )
            assert status == 200 and body["packets_buffered"] == 50
            status, body, headers = harness.request_full(
                "POST", f"/ingest/{JOB}", _batch_line(10) + "\n"
            )
            _assert_structured_error(status, body, "backpressure")
            assert status == 429
            assert headers.get("retry-after") == "1"
            # the rejected batch touched nothing
            assert harness.request("GET", f"/status/{JOB}")[1]["packets_buffered"] == 50
            # a duplicate replay must still be acked even under pressure
            # (crash recovery has to drain the acked prefix first)
            status, body = harness.request(
                "POST", f"/ingest/{JOB}?seq=1", _batch_line(50) + "\n"
            )
            assert status == 200 and body["duplicate"] is True
        finally:
            harness.shutdown()
        # operator recovery: restart without the (too-tight) limit and
        # --resume; the restored buffer plus the next batch complete the
        # window — nothing the cap rejected was lost
        revived = _DaemonHarness(store_root, resume=True)
        try:
            status, body = revived.request("GET", f"/status/{JOB}")
            assert body["resumed_from_seq"] == 1
            assert body["packets_buffered"] == 50
            status, body = revived.request(
                "POST", f"/ingest/{JOB}?seq=2", _batch_line(50, start=50) + "\n"
            )
            assert status == 200 and body["windows_folded_now"] == 1
        finally:
            revived.shutdown()

    def test_job_config_limit_overrides_daemon_default(self, tmp_path):
        harness = _DaemonHarness(
            tmp_path / "store",
            config_data={
                "name": JOB,
                "window": {"n_valid": N_VALID},
                "limits": {"max_buffered_packets": 20},
            },
            max_buffered_packets=10_000,
        )
        try:
            status, _body = harness.request("POST", f"/ingest/{JOB}", _batch_line(25) + "\n")
            assert status == 200
            status, body = harness.request("POST", f"/ingest/{JOB}", _batch_line(5) + "\n")
            _assert_structured_error(status, body, "backpressure")
        finally:
            harness.shutdown()

    def test_corrupted_checkpoint_falls_back_a_generation(self, tmp_path, caplog):
        store_root = tmp_path / "store"
        harness = _DaemonHarness(store_root, checkpoint_every=1)
        try:
            for seq in (1, 2, 3):
                status, body = harness.request(
                    "POST", f"/ingest/{JOB}?seq={seq}", _batch_line(N_VALID) + "\n"
                )
                assert status == 200 and body["acked_seq"] == seq
            key = harness.daemon.registry.get(JOB).config_hash
        finally:
            harness.shutdown()
        # tear the newest checkpoint generation's payload on disk
        seqs = harness.store.checkpoint_seqs(key)
        assert seqs and seqs[-1] == 3
        payload_path, _record_path = harness.store._checkpoint_paths(key, seqs[-1])
        payload_path.write_bytes(payload_path.read_bytes()[:10])
        with caplog.at_level("WARNING", logger="repro"):
            revived = _DaemonHarness(store_root, resume=True, checkpoint_every=1)
        try:
            assert any("checkpoint" in record.message for record in caplog.records)
            status, body = revived.request("GET", f"/status/{JOB}")
            # the torn generation was skipped; the previous one restored
            assert body["resumed_from_seq"] == 2
            assert body["windows_folded"] == 2
            # replay: seq 1-2 are acked no-ops, seq 3 folds the third window
            for seq, folded in ((1, 0), (2, 0), (3, 1)):
                status, body = revived.request(
                    "POST", f"/ingest/{JOB}?seq={seq}", _batch_line(N_VALID) + "\n"
                )
                assert status == 200
                assert body["windows_folded_now"] == folded
            assert revived.windows_folded() == 3
        finally:
            revived.shutdown()

    def test_checkpoint_write_failure_contained(self, tmp_path):
        harness = _DaemonHarness(tmp_path / "store", checkpoint_every=1)
        try:
            def _refuse(*args, **kwargs):
                raise OSError("disk full (injected)")

            harness.store.put_checkpoint = _refuse  # instance shadow, class intact
            status, body = harness.request(
                "POST", f"/ingest/{JOB}?seq=1", _batch_line(N_VALID) + "\n"
            )
            # the ingest itself succeeded; only durability degraded
            assert status == 200 and body["windows_folded"] == 1
            status, body = harness.request("GET", f"/status/{JOB}")
            assert body["checkpoint_failures"] == 1
            assert body["checkpoints_written"] == 0
            # heal the store: the next cadence point retries and succeeds
            del harness.store.put_checkpoint
            status, body = harness.request(
                "POST", f"/ingest/{JOB}?seq=2", _batch_line(N_VALID) + "\n"
            )
            assert status == 200
            status, body = harness.request("GET", f"/status/{JOB}")
            assert body["checkpoints_written"] == 1
            key = harness.daemon.registry.get(JOB).config_hash
            found = harness.store.latest_checkpoint(key)
            assert found is not None and found[0] == 2
        finally:
            harness.shutdown()
