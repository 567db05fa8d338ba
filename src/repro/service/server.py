"""The resident daemon behind ``repro serve``: asyncio HTTP front end.

:class:`ServiceDaemon` is a deliberately small HTTP/1.1 server built on
``asyncio.start_server`` (stdlib only, one connection handled per task).
It accepts newline-delimited JSON packet batches, validates each batch
*fully* before folding anything, and drives every job's
:class:`~repro.service.engine.JobEngine` — which is the same window-fold
loop every one-shot analysis uses.

Routes
------
``GET /status``
    Daemon-level status: every job's counters, uptime, config hash.
``GET /status/<job>``
    One job's status entry.
``POST /jobs``
    Submit a job config (JSON body); replies with the job's config hash.
``POST /ingest/<job>[?seq=N]``
    Newline-delimited JSON packet batches.  All lines are parsed and
    validated before the first fold, so a malformed line folds nothing.
    An optional ``seq`` sequence number makes ingest idempotent: a
    request at or below the job's acked sequence is acknowledged without
    re-folding (crash replay), a request that skips ahead gets a 409, and
    every success reports ``acked_seq``.  A job whose unfolded buffer
    exceeds its back-pressure limit answers 429 with ``Retry-After``.
``POST /jobs/<job>/flush``
    Finalize the job's current analysis into the daemon's
    :class:`~repro.campaigns.store.ResultStore` (and pin a checkpoint).

Fault containment is the point: every bad request — malformed JSON,
out-of-range ids, an oversized batch, a client that disconnects
mid-stream, an unknown config ``version`` — produces a structured JSON
error (``{"error": {"code", "message"}}``) or a dropped connection, never
a dead daemon and never a corrupted analyzer
(``tests/test_service_faults.py``).  Durability extends that contract to
crashes: with a checkpoint cadence armed the daemon periodically persists
each engine's exact fold state through
:mod:`repro.service.checkpoint`, and ``--resume`` restores it so replayed
unacked batches reproduce the uninterrupted run bit for bit
(``tests/test_service_checkpoint.py``).  On SIGTERM the daemon stops
accepting work, lets in-flight requests drain, flushes every job's result
to the store, checkpoints, and exits 0.
"""

from __future__ import annotations

import asyncio
import json
import re
import signal
import threading
from pathlib import Path
from typing import Iterable, Mapping, Sequence
from urllib.parse import parse_qs

from repro._util.logging import get_logger
from repro.campaigns.store import ResultStore
from repro.service.checkpoint import CheckpointPolicy, JobCheckpointer, resume_job
from repro.service.config import JobConfig, JobConfigError
from repro.service.engine import BatchError, BatchJSONError, packet_batch_from_json
from repro.service.jobs import JobRegistry

__all__ = ["DEFAULT_MAX_BATCH_BYTES", "ServiceDaemon", "serve"]

_logger = get_logger("service.server")

#: Default cap on one request body; a larger ``Content-Length`` gets a 413
#: structured error without the body ever being buffered or parsed.
DEFAULT_MAX_BATCH_BYTES = 8 * 1024 * 1024

_MAX_HEADER_BYTES = 16 * 1024

#: How long a connection whose request was rejected unread keeps draining
#: the client's input before it is closed.
_LINGER_SECONDS = 2.0


#: A byte ``bytes.strip()`` does not remove.
_NON_BLANK = re.compile(rb"[^ \t\n\r\x0b\x0c]")


def _line_spans(body: bytes) -> list[tuple[int, int]]:
    """``(start, end)`` of each line of *body* that ``bytes.strip()`` would not empty.

    Lines end at ``\n``; the body is walked in place, not split into copies.
    """
    spans = []
    start = 0
    while start < len(body):
        end = body.find(b"\n", start)
        if end < 0:
            end = len(body)
        if _NON_BLANK.search(body, start, end):
            spans.append((start, end))
        start = end + 1
    return spans


class _HttpError(Exception):
    """A request failure that maps to one structured error response."""

    def __init__(
        self, status: int, code: str, message: str, *, headers: Mapping[str, str] | None = None
    ) -> None:
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message
        self.headers = dict(headers or {})


_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    411: "Length Required",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
}


class ServiceDaemon:
    """A resident streaming-analysis daemon over asyncio HTTP.

    Parameters
    ----------
    configs:
        Job configs to register at startup (more may arrive via
        ``POST /jobs``).
    host, port:
        Bind address; ``port=0`` binds an ephemeral port, reported via
        :attr:`port` once the server is up.
    store:
        The :class:`ResultStore` results are flushed into on shutdown and
        on ``POST /jobs/<job>/flush``; ``None`` disables flushing.
    max_batch_bytes:
        Request-body cap; oversized requests get a structured 413.
    max_buffered_packets:
        Daemon-wide ingest back-pressure default: a job whose buffered
        (unfolded) packets reach this limit answers ingests with a
        structured 429 + ``Retry-After`` until the buffer drains.  A job
        config's ``limits.max_buffered_packets`` overrides it per job;
        ``None`` means unlimited.
    checkpoint_policy:
        When to write durable job checkpoints
        (:class:`~repro.service.checkpoint.CheckpointPolicy`); requires a
        *store*.  ``None`` disables periodic checkpoints (explicit flushes
        and graceful shutdown still write one when a store is present).
    resume:
        Restore each job from its newest valid checkpoint at registration
        time (including jobs submitted later via ``POST /jobs``); requires
        a *store*.
    """

    def __init__(
        self,
        configs: Iterable[JobConfig] = (),
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        store: ResultStore | None = None,
        max_batch_bytes: int = DEFAULT_MAX_BATCH_BYTES,
        max_buffered_packets: int | None = None,
        checkpoint_policy: CheckpointPolicy | None = None,
        resume: bool = False,
    ) -> None:
        self.host = host
        self.port = port
        self.store = store
        self.max_batch_bytes = int(max_batch_bytes)
        if max_buffered_packets is not None and int(max_buffered_packets) < 1:
            raise ValueError(f"max_buffered_packets must be >= 1, got {max_buffered_packets}")
        self.max_buffered_packets = (
            int(max_buffered_packets) if max_buffered_packets is not None else None
        )
        if store is None and (checkpoint_policy is not None or resume):
            raise ValueError("checkpointing/resume requires a result store (--store)")
        self._resume = bool(resume)
        self._checkpointer = (
            JobCheckpointer(store, checkpoint_policy or CheckpointPolicy())
            if store is not None
            else None
        )
        self.registry = JobRegistry()
        for config in configs:
            job = self.registry.add(config)
            if self._resume:
                resume_job(store, job)
        self.requests_served = 0
        self.requests_failed = 0
        self._shutdown: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._ready = threading.Event()

    # ------------------------------------------------------------------ http

    def _respond(
        self, status: int, body: dict, headers: Mapping[str, str] | None = None
    ) -> bytes:
        payload = json.dumps(body).encode("utf-8")
        extra = "".join(f"{name}: {value}\r\n" for name, value in (headers or {}).items())
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"{extra}"
            f"Connection: close\r\n\r\n"
        )
        return head.encode("ascii") + payload

    def _error_body(self, error: _HttpError) -> dict:
        return {"error": {"code": error.code, "message": error.message}}

    async def _read_request(self, reader: asyncio.StreamReader):
        """Parse one request: ``(method, path, body)``.

        Raises :class:`_HttpError` on protocol violations and
        ``asyncio.IncompleteReadError`` when the client disconnects before
        delivering the promised body — the caller drops the connection and
        no job state changes.
        """
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.LimitOverrunError as error:
            raise _HttpError(400, "bad_request", "request head too large") from error
        if len(head) > _MAX_HEADER_BYTES:
            raise _HttpError(400, "bad_request", "request head too large")
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) != 3:
            raise _HttpError(400, "bad_request", f"malformed request line: {lines[0]!r}")
        method, path, _version = parts
        headers: dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        body = b""
        if method == "POST":
            if "content-length" not in headers:
                raise _HttpError(411, "length_required", "POST requires Content-Length")
            try:
                length = int(headers["content-length"])
            except ValueError:
                raise _HttpError(400, "bad_request", "invalid Content-Length") from None
            if length < 0:
                raise _HttpError(400, "bad_request", "invalid Content-Length")
            if length > self.max_batch_bytes:
                raise _HttpError(
                    413,
                    "batch_too_large",
                    f"request body of {length} bytes exceeds the "
                    f"{self.max_batch_bytes}-byte limit",
                )
            # a client that disconnects mid-body raises IncompleteReadError
            # here — before any parsing or folding
            body = await reader.readexactly(length)
        return method, path, body

    @staticmethod
    async def _discard_input(reader: asyncio.StreamReader) -> None:
        """Drop what the client still sends after an unread rejection, then return.

        Closing a socket with unread input makes the kernel reset the
        connection, and a client still writing its (e.g. oversized) body
        then fails with ``ECONNRESET`` instead of reading the error
        response.  Reading to EOF in chunks keeps memory flat; the wait is
        bounded by :data:`_LINGER_SECONDS`.
        """

        async def read_to_eof() -> None:
            while await reader.read(64 * 1024):
                pass

        try:
            await asyncio.wait_for(read_to_eof(), _LINGER_SECONDS)
        except (asyncio.TimeoutError, ConnectionError):
            pass

    async def _handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        """Serve one connection: one request, one response, close."""
        try:
            try:
                method, path, body = await self._read_request(reader)
            except _HttpError as error:
                self.requests_failed += 1
                writer.write(self._respond(error.status, self._error_body(error), error.headers))
                await writer.drain()
                await self._discard_input(reader)
                return
            except (asyncio.IncompleteReadError, ConnectionError):
                # mid-stream disconnect: nothing parsed, nothing folded
                self.requests_failed += 1
                _logger.info("client disconnected mid-request; dropped")
                return
            headers: Mapping[str, str] | None = None
            try:
                status, response = self._route(method, path, body)
                self.requests_served += 1
            except _HttpError as error:
                self.requests_failed += 1
                status, response, headers = error.status, self._error_body(error), error.headers
            except Exception as error:  # noqa: BLE001 - daemon must survive
                self.requests_failed += 1
                _logger.exception("unexpected error serving %s %s", method, path)
                status, response = 500, {
                    "error": {"code": "internal", "message": f"{type(error).__name__}: {error}"}
                }
            writer.write(self._respond(status, response, headers))
            await writer.drain()
        except ConnectionError:
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    # ---------------------------------------------------------------- routes

    def _route(self, method: str, path: str, body: bytes) -> tuple[int, dict]:
        """Dispatch one parsed request to its handler."""
        path, _, query = path.partition("?")
        segments = [s for s in path.split("/") if s]
        if method == "GET" and segments == ["status"]:
            return 200, self._status()
        if method == "GET" and len(segments) == 2 and segments[0] == "status":
            return 200, self._job(segments[1]).status()
        if method == "POST" and segments == ["jobs"]:
            return self._submit(body)
        if method == "POST" and len(segments) == 2 and segments[0] == "ingest":
            return self._ingest(segments[1], body, query)
        if (
            method == "POST"
            and len(segments) == 3
            and segments[0] == "jobs"
            and segments[2] == "flush"
        ):
            return self._flush_one(segments[1])
        if method not in ("GET", "POST"):
            raise _HttpError(405, "method_not_allowed", f"unsupported method {method!r}")
        raise _HttpError(404, "not_found", f"no route for {method} {path}")

    def _status(self) -> dict:
        body = self.registry.status()
        body["requests_served"] = self.requests_served
        body["requests_failed"] = self.requests_failed
        body["store"] = str(self.store.root) if self.store is not None else None
        return body

    def _job(self, name: str):
        try:
            return self.registry.get(name)
        except KeyError:
            raise _HttpError(404, "unknown_job", f"no such job: {name!r}") from None

    def _submit(self, body: bytes) -> tuple[int, dict]:
        try:
            data = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise _HttpError(400, "bad_json", f"job config is not valid JSON: {error}") from None
        if not isinstance(data, Mapping):
            raise _HttpError(400, "bad_config", "job config must be a JSON object")
        try:
            config = JobConfig.from_dict(data)
        except JobConfigError as error:
            raise _HttpError(400, "bad_config", str(error)) from None
        try:
            job = self.registry.add(config)
        except ValueError as error:
            raise _HttpError(400, "duplicate_job", str(error)) from None
        if self._resume:
            resume_job(self.store, job)
        return 200, {"job": job.name, "config_hash": job.config_hash}

    @staticmethod
    def _parse_seq(query: str) -> int | None:
        """The ``seq=N`` ingest sequence number, or ``None`` when absent."""
        seq_values = parse_qs(query).get("seq")
        if not seq_values:
            return None
        try:
            seq = int(seq_values[-1])
        except ValueError:
            raise _HttpError(
                400, "bad_seq", f"seq must be a positive integer, got {seq_values[-1]!r}"
            ) from None
        if seq < 1:
            raise _HttpError(400, "bad_seq", f"seq must be >= 1, got {seq}")
        return seq

    def _buffer_limit(self, job) -> int | None:
        """The job's effective back-pressure limit (job config over daemon default)."""
        per_job = job.config.limits.max_buffered_packets
        return per_job if per_job is not None else self.max_buffered_packets

    def _ingest(self, name: str, body: bytes, query: str = "") -> tuple[int, dict]:
        job = self._job(name)
        seq = self._parse_seq(query)
        engine = job.engine
        if seq is not None:
            if seq <= engine.acked_seq:
                # already folded (e.g. a crash-replay of an acked batch):
                # acknowledge without touching any state — the no-op that
                # makes replay-from-1 idempotent
                return 200, {
                    "job": job.name,
                    "duplicate": True,
                    "acked_seq": engine.acked_seq,
                    "batches": 0,
                    "windows_folded_now": 0,
                    "windows_folded": engine.windows_folded,
                    "packets_buffered": engine.packets_buffered,
                    "alarms_raised": engine.alarms_raised,
                }
            if seq > engine.acked_seq + 1:
                raise _HttpError(
                    409,
                    "sequence_gap",
                    f"seq {seq} skips ahead of acked seq {engine.acked_seq}; "
                    f"replay from {engine.acked_seq + 1}",
                )
        limit = self._buffer_limit(job)
        if limit is not None and engine.packets_buffered >= limit:
            raise _HttpError(
                429,
                "backpressure",
                f"job {name!r} has {engine.packets_buffered} packets buffered "
                f"(limit {limit}); retry after the fold catches up",
                headers={"Retry-After": "1"},
            )
        spans = _line_spans(body)
        if not spans:
            job.errors += 1
            raise _HttpError(400, "empty_batch", "request body carried no batch lines")
        # parse and validate EVERY line before folding ANY: a malformed
        # line N must not leave lines < N already folded
        traces = []
        for i, (start, end) in enumerate(spans, start=1):
            try:
                traces.append(packet_batch_from_json(body[start:end]))
            except BatchJSONError as error:
                job.errors += 1
                raise _HttpError(
                    400, "bad_json", f"batch line {i} is not valid JSON: {error}"
                ) from None
            except BatchError as error:
                job.errors += 1
                raise _HttpError(400, "bad_batch", f"batch line {i}: {error}") from None
        windows = sum(engine.ingest(trace) for trace in traces)
        # the request folded in full; advance the acked sequence number and
        # (maybe) checkpoint — both only ever at request boundaries, so a
        # checkpoint can never capture a half-applied request
        engine.acked_seq = seq if seq is not None else engine.acked_seq + 1
        if self._checkpointer is not None:
            self._checkpointer.maybe_checkpoint(job)
        return 200, {
            "job": job.name,
            "batches": len(traces),
            "acked_seq": engine.acked_seq,
            "windows_folded_now": windows,
            "windows_folded": engine.windows_folded,
            "packets_buffered": engine.packets_buffered,
            "alarms_raised": engine.alarms_raised,
        }

    def _flush_one(self, name: str) -> tuple[int, dict]:
        job = self._job(name)
        if self.store is None:
            raise _HttpError(400, "no_store", "daemon was started without a result store")
        payload = job.flush_payload()
        if payload is None:
            raise _HttpError(
                400, "no_windows", f"job {name!r} has folded no complete window yet"
            )
        self.store.put(
            job.config_hash, payload, meta={"kind": "service_job", "job": job.name}
        )
        if self._checkpointer is not None:
            # every explicit flush also pins a checkpoint, so "flushed" is
            # always a state the daemon can resume past
            self._checkpointer.checkpoint(job)
        return 200, {"job": job.name, "stored": job.config_hash}

    # ------------------------------------------------------------- lifecycle

    def request_shutdown(self) -> None:
        """Ask the daemon to drain and exit; safe to call from any thread."""
        loop, event = self._loop, self._shutdown
        if loop is None or event is None:
            return
        loop.call_soon_threadsafe(event.set)

    def wait_ready(self, timeout: float | None = None) -> bool:
        """Block until the server socket is bound (for test harnesses)."""
        return self._ready.wait(timeout)

    async def run_async(self, *, install_signal_handlers: bool = False) -> int:
        """Serve until shutdown is requested; drain, flush, return 0."""
        self._loop = asyncio.get_running_loop()
        self._shutdown = asyncio.Event()
        if install_signal_handlers:
            for sig in (signal.SIGTERM, signal.SIGINT):
                self._loop.add_signal_handler(sig, self._shutdown.set)
        server = await asyncio.start_server(
            self._handle, self.host, self.port, limit=_MAX_HEADER_BYTES
        )
        self.port = server.sockets[0].getsockname()[1]
        _logger.info(
            "repro serve listening on %s:%d (%d job(s))",
            self.host, self.port, len(self.registry),
        )
        self._ready.set()
        async with server:
            await self._shutdown.wait()
            # stop accepting, then let in-flight handlers drain before the
            # flush below snapshots job state
            server.close()
            await server.wait_closed()
        if self.store is not None:
            keys = self.registry.flush(self.store)
            _logger.info("flushed %d job result(s) on shutdown", len(keys))
            if self._checkpointer is not None:
                # pin a final checkpoint per job so a --resume restart of
                # the same store starts exactly where this run stopped
                for job in self.registry:
                    self._checkpointer.checkpoint(job)
        _logger.info("repro serve exiting cleanly")
        return 0

    def run(self, *, install_signal_handlers: bool = False) -> int:
        """Blocking entry point: ``asyncio.run`` around :meth:`run_async`."""
        return asyncio.run(self.run_async(install_signal_handlers=install_signal_handlers))


def serve(
    configs: Sequence[JobConfig],
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    store_root: str | Path | None = None,
    max_batch_bytes: int = DEFAULT_MAX_BATCH_BYTES,
    max_buffered_packets: int | None = None,
    checkpoint_every: int | None = None,
    checkpoint_seconds: float | None = None,
    resume: bool = False,
) -> int:
    """Run the daemon in the foreground until SIGTERM/SIGINT; return 0.

    This is the function ``repro serve`` calls: it builds the
    :class:`ServiceDaemon`, opens the :class:`ResultStore` when
    *store_root* is given, installs signal handlers, and blocks.
    *checkpoint_every* / *checkpoint_seconds* arm the periodic checkpoint
    cadence and *resume* restores jobs from their newest valid checkpoint
    at startup (both need *store_root*).  On SIGTERM the daemon drains
    in-flight requests, flushes every job's result to the store,
    checkpoints, and this function returns 0.
    """
    store = ResultStore(store_root) if store_root is not None else None
    policy = None
    if checkpoint_every is not None or checkpoint_seconds is not None:
        policy = CheckpointPolicy(
            every_batches=checkpoint_every, every_seconds=checkpoint_seconds
        )
    daemon = ServiceDaemon(
        configs,
        host=host,
        port=port,
        store=store,
        max_batch_bytes=max_batch_bytes,
        max_buffered_packets=max_buffered_packets,
        checkpoint_policy=policy,
        resume=resume,
    )
    return daemon.run(install_signal_handlers=True)
