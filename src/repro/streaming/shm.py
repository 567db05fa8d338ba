"""Shared-memory zero-copy transport for batched window payloads.

The batched process backend used to *pickle* every window's raw
``src``/``dst``/``valid`` columns into each pool task.  That is one full
copy of the analysed bytes through a pipe per map — the dominant transfer
cost once windows hold millions of packets.  This module moves the bytes
through ``multiprocessing.shared_memory`` instead:

* the **parent** concatenates the payload columns of one batch of windows
  into a single named shared-memory segment (:func:`publish_payloads`),
  once per batch;
* each pool task then carries only :class:`ShmWindowRef` records — segment
  name, per-column offsets, lengths, and dtypes; a few hundred bytes per
  window regardless of window size;
* **workers** attach the segment by name (:func:`attached_payloads`) and
  build read-only NumPy views directly onto the shared pages — no copy, no
  unpickling of column data.  Under the ``fork`` start method the physical
  pages are mapped, not duplicated, so *k* workers analysing one map share
  one copy of the columns.

The views are the same bytes the pickle transport would have shipped, so
the analysis products are bit-identical between the two transports
(pinned by ``tests/test_streaming_shm.py``).

Segment lifecycle is deterministic: the creator closes **and unlinks** a
batch's segment as soon as that batch is folded (or the fold fails or is
abandoned), mirroring how the result store prunes its orphaned temp
files.  A process killed hard
(SIGKILL of a whole fleet worker, OOM) can still leak a segment past its
own ``resource_tracker``; every :func:`publish_payloads` call therefore
begins by reaping segments whose creator pid is no longer alive
(:func:`reap_orphaned_segments`) — leaks survive at most until the next
publish on the machine.
"""

from __future__ import annotations

import itertools
import os
import secrets
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from repro._util.logging import get_logger
from repro.streaming.kernel import WindowPayload

__all__ = [
    "SEGMENT_PREFIX",
    "TRANSPORT_NAMES",
    "ColumnRef",
    "ShmWindowRef",
    "PublishedPayloads",
    "shm_supported",
    "default_payload_transport",
    "check_payload_transport",
    "publish_payloads",
    "attached_payloads",
    "reap_orphaned_segments",
]

_logger = get_logger("streaming.shm")

#: Prefix of every segment this module creates.  The creator pid is encoded
#: in the name so :func:`reap_orphaned_segments` can tell a leak (creator
#: dead) from a live map (creator alive).
SEGMENT_PREFIX = "repro_shm"

#: Payload transports the process backend understands: ``"pickle"`` ships
#: column bytes through the task pipe, ``"shm"`` ships only references into
#: a shared-memory segment.
TRANSPORT_NAMES = ("pickle", "shm")

#: Column offsets are aligned so every view starts on a clean boundary.
_ALIGN = 16

#: Where POSIX shared memory is visible as files (Linux).  Reaping needs to
#: *enumerate* segments, which the shared_memory API cannot do; on platforms
#: without this directory reaping is a silent no-op.
_SHM_DIR = "/dev/shm"

_SEGMENT_COUNTER = itertools.count()


def shm_supported() -> bool:
    """Whether ``multiprocessing.shared_memory`` works on this platform."""
    try:
        from multiprocessing import shared_memory  # noqa: F401
    except ImportError:  # pragma: no cover - all supported platforms have it
        return False
    return True


def default_payload_transport() -> str:
    """The transport the process backend uses when none is requested.

    ``"shm"`` wherever the platform supports it, ``"pickle"`` otherwise —
    both produce bit-identical analysis output.
    """
    return "shm" if shm_supported() else "pickle"


def check_payload_transport(transport: str | None) -> str:
    """Resolve/validate a ``payload_transport`` argument to a concrete name."""
    if transport is None:
        return default_payload_transport()
    if transport not in TRANSPORT_NAMES:
        raise ValueError(
            f"unknown payload_transport {transport!r}; expected one of {TRANSPORT_NAMES}"
        )
    if transport == "shm" and not shm_supported():  # pragma: no cover - platform
        raise ValueError("payload_transport='shm' is not supported on this platform")
    return transport


@dataclass(frozen=True)
class ColumnRef:
    """One column of one window inside a shared segment.

    ``offset`` is in bytes from the start of the segment, ``size`` in
    elements; ``dtype`` is the NumPy dtype string of the stored column.
    """

    offset: int
    size: int
    dtype: str


@dataclass(frozen=True)
class ShmWindowRef:
    """A :data:`~repro.streaming.kernel.WindowPayload` by reference.

    Pickles to a few hundred bytes no matter how many packets the window
    holds; resolve back to column views with :func:`attached_payloads`.
    ``valid`` is ``None`` for all-valid windows, exactly as in the direct
    payload.
    """

    segment: str
    src: ColumnRef
    dst: ColumnRef
    valid: Optional[ColumnRef] = None


def _segment_name() -> str:
    """A fresh segment name encoding the creator pid (parseable by the reaper)."""
    return (
        f"{SEGMENT_PREFIX}_{os.getpid()}_{next(_SEGMENT_COUNTER)}_{secrets.token_hex(4)}"
    )


def _creator_pid(segment_name: str) -> int | None:
    """The creator pid encoded in a segment name, or ``None`` if unparseable."""
    parts = segment_name.split("_")
    # repro_shm_<pid>_<counter>_<token>
    if len(parts) >= 5 and parts[0] == "repro" and parts[1] == "shm":
        try:
            return int(parts[2])
        except ValueError:
            return None
    return None


def _pid_alive(pid: int) -> bool:
    """Whether *pid* currently names a live process (EPERM counts as alive)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - other-user process
        return True
    return True


def reap_orphaned_segments() -> int:
    """Unlink leaked ``repro_shm`` segments whose creator process is dead.

    The normal lifecycle never needs this — the creator unlinks its segment
    in the same ``finally`` that ends the map — but a SIGKILLed process
    (fleet worker takeover, OOM) dies before its ``finally`` *and* takes its
    ``resource_tracker`` with it when the whole process group is killed.
    Called at the start of every :func:`publish_payloads`, so a leaked
    segment survives at most until the next shared-memory map on the
    machine; returns the number of segments reaped.
    """
    if not os.path.isdir(_SHM_DIR):  # pragma: no cover - non-Linux platforms
        return 0
    reaped = 0
    try:
        names = os.listdir(_SHM_DIR)
    except OSError:  # pragma: no cover - defensive
        return 0
    for name in names:
        if not name.startswith(SEGMENT_PREFIX + "_"):
            continue
        pid = _creator_pid(name)
        if pid is None or pid == os.getpid() or _pid_alive(pid):
            continue
        try:
            os.unlink(os.path.join(_SHM_DIR, name))
        except OSError:  # pragma: no cover - raced another reaper
            continue
        reaped += 1
        _logger.info("reaped orphaned shared-memory segment %s (creator pid %d is dead)", name, pid)
    return reaped


class PublishedPayloads:
    """Creator-side handle of one published payload set.

    Holds the shared-memory segment open for the duration of the map and
    owns its destruction: :meth:`close` (idempotent) closes the mapping and
    unlinks the name, after which workers can no longer attach.  ``refs``
    are the picklable per-window references to ship instead of the columns.
    """

    def __init__(self, shm, refs: Tuple[ShmWindowRef, ...]) -> None:
        self._shm = shm
        self.refs = refs
        self._segment = shm.name
        self._nbytes = shm.size

    @property
    def segment(self) -> str:
        """Name of the underlying shared-memory segment (stable across close)."""
        return self._segment

    @property
    def nbytes(self) -> int:
        """Size of the shared segment in bytes."""
        return self._nbytes

    def close(self) -> None:
        """Close the mapping and unlink the segment (idempotent)."""
        if self._shm is None:
            return
        shm, self._shm = self._shm, None
        shm.close()
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - raced the reaper
            pass

    def __enter__(self) -> "PublishedPayloads":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - backstop, not the API
        self.close()


def _append_column(buffer: memoryview, cursor: int, column: np.ndarray) -> Tuple[ColumnRef, int]:
    """Copy one column into the segment at the next aligned offset."""
    offset = -(-cursor // _ALIGN) * _ALIGN
    end = offset + column.nbytes
    view = np.ndarray(column.shape, dtype=column.dtype, buffer=buffer, offset=offset)
    view[...] = column
    return ColumnRef(offset=offset, size=int(column.size), dtype=column.dtype.str), end


def publish_payloads(payloads: Sequence[WindowPayload]) -> PublishedPayloads:
    """Publish window payload columns into one shared-memory segment.

    Concatenates every window's ``src``/``dst`` (and ``valid`` where
    present) columns into a freshly created segment and returns the handle
    plus one :class:`ShmWindowRef` per window, in order.  The caller owns
    the handle and must :meth:`~PublishedPayloads.close` it when the fold
    is done — use it as a context manager.  Orphaned segments from dead
    processes are reaped first.
    """
    from multiprocessing import shared_memory

    reap_orphaned_segments()
    total = 0
    for src, dst, valid in payloads:
        total = -(-total // _ALIGN) * _ALIGN + src.nbytes
        total = -(-total // _ALIGN) * _ALIGN + dst.nbytes
        if valid is not None:
            total = -(-total // _ALIGN) * _ALIGN + valid.nbytes
    # SharedMemory rejects size 0; an all-empty map still needs a segment
    shm = shared_memory.SharedMemory(create=True, size=max(total, 1), name=_segment_name())
    try:
        buffer = shm.buf
        cursor = 0
        refs = []
        for src, dst, valid in payloads:
            src_ref, cursor = _append_column(buffer, cursor, src)
            dst_ref, cursor = _append_column(buffer, cursor, dst)
            valid_ref = None
            if valid is not None:
                valid_ref, cursor = _append_column(buffer, cursor, valid)
            refs.append(ShmWindowRef(segment=shm.name, src=src_ref, dst=dst_ref, valid=valid_ref))
    except BaseException:
        shm.close()
        shm.unlink()
        raise
    _logger.debug(
        "published %d window payloads (%d bytes) into segment %s",
        len(refs), total, shm.name,
    )
    return PublishedPayloads(shm, tuple(refs))


def _attach_segment(name: str):
    """Attach an existing segment by name without resource-tracker tracking.

    Before Python 3.13 every attach *registers* the segment with the
    process's ``resource_tracker``, which then unlinks it when the attaching
    process exits — destroying a segment the creator still owns (bpo-38119).
    Attaches must therefore not be tracked at all: the creator alone decides
    when the segment dies.  (Suppressing registration is strictly better
    than register-then-unregister: fork'd workers share the parent's tracker
    process, whose name cache is a *set*, so a worker's unregister would
    also erase the creator's own registration and its later ``unlink`` would
    trip a tracker ``KeyError``.)
    """
    from multiprocessing import shared_memory

    try:
        return shared_memory.SharedMemory(name=name, track=False)  # type: ignore[call-arg]
    except TypeError:  # Python < 3.13: no track parameter
        from multiprocessing import resource_tracker

        original_register = resource_tracker.register

        def _skip_shm_register(rname, rtype):  # pragma: no cover - trivial shim
            if rtype != "shared_memory":
                original_register(rname, rtype)

        resource_tracker.register = _skip_shm_register
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original_register


def _column_view(buffer: memoryview, ref: ColumnRef) -> np.ndarray:
    """A read-only NumPy view of one column inside an attached segment."""
    view = np.ndarray((ref.size,), dtype=np.dtype(ref.dtype), buffer=buffer, offset=ref.offset)
    view.flags.writeable = False
    return view


@contextmanager
def attached_payloads() -> Iterator:
    """Attach segments on demand and resolve references to payload views.

    Yields a resolver: calling it with one :class:`ShmWindowRef` returns the
    read-only :data:`~repro.streaming.kernel.WindowPayload` view of that
    window, attaching each distinct segment the first time it is named.  All
    attachments are detached on exit, so resolved views must not outlive the
    ``with`` block — the analysis products computed from them (aggregates,
    histograms, pooled vectors) are fresh arrays and safely do.
    """
    segments: dict = {}

    def resolve(ref: ShmWindowRef) -> WindowPayload:
        shm = segments.get(ref.segment)
        if shm is None:
            shm = segments[ref.segment] = _attach_segment(ref.segment)
        buffer = shm.buf
        return (
            _column_view(buffer, ref.src),
            _column_view(buffer, ref.dst),
            _column_view(buffer, ref.valid) if ref.valid is not None else None,
        )

    try:
        yield resolve
    finally:
        for shm in segments.values():
            try:
                shm.close()
            except BufferError:  # pragma: no cover - a view outlived the block
                _logger.debug("segment %s still has live views; deferring close to GC", shm.name)
