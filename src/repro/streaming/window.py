"""Fixed-valid-packet windowing of traces.

"An essential step for increasing the accuracy of the statistical measures
of Internet traffic is using windows with the same number of valid packets
``N_V``" (Section II).  :func:`iter_windows` cuts a trace into consecutive
windows each containing exactly ``N_V`` valid packets (invalid packets ride
along inside whichever window they fall into but do not count toward the
budget); a trailing partial window is dropped so every emitted window is
statistically comparable.

:class:`PushWindower` is the out-of-core counterpart: fed trace *chunks*
one at a time (e.g. from :func:`repro.streaming.trace_io.iter_trace_chunks`),
it cuts exactly the same windows as :func:`iter_windows` would on the
concatenated trace, while only ever buffering one chunk plus the leftover
packets of the current incomplete window.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Tuple, TypeVar

import numpy as np

from repro._util.validation import check_positive_int
from repro.streaming.packet import PacketTrace, join_records

__all__ = [
    "iter_windows",
    "iter_batches",
    "PushWindower",
    "count_windows",
    "window_boundaries",
]

_T = TypeVar("_T")


def iter_batches(items: Iterable[_T], batch_size: int) -> Iterator[Tuple[_T, ...]]:
    """Group an iterable into consecutive tuples of *batch_size* (last short).

    Order-preserving and lazy — one batch is materialized at a time, so
    batching a window stream keeps its bounded-memory property.  The
    process backend's engine path uses this to move whole window batches
    through one worker task instead of paying per-window overhead.
    """
    batch_size = check_positive_int(batch_size, "batch_size")
    batch: list = []
    for item in items:
        batch.append(item)
        if len(batch) == batch_size:
            yield tuple(batch)
            batch = []
    if batch:
        yield tuple(batch)


def _window_ends(valid: np.ndarray, n_valid: int, carried: int = 0) -> np.ndarray:
    """One-past-the-end packet indices of the windows that close in *valid*.

    *carried* valid packets (``< n_valid``) are already pending before
    index 0, so the first window closes at the ``n_valid - carried``-th
    valid packet and every later one ``n_valid`` valid packets on.
    """
    positions = np.flatnonzero(valid)
    return positions[n_valid - carried - 1 :: n_valid] + 1


def window_boundaries(trace: PacketTrace, n_valid: int) -> np.ndarray:
    """Packet-index boundaries of consecutive ``N_V``-valid-packet windows.

    Returns an array ``b`` of length ``n_windows + 1``; window ``k`` spans
    packet indices ``[b[k], b[k+1])``.  Only complete windows are included.
    """
    n_valid = check_positive_int(n_valid, "n_valid")
    ends = _window_ends(trace.packets["valid"], n_valid)
    return np.concatenate([[0], ends]).astype(np.int64)


def count_windows(trace: PacketTrace, n_valid: int) -> int:
    """Number of complete ``N_V``-valid-packet windows in the trace."""
    n_valid = check_positive_int(n_valid, "n_valid")
    return trace.n_valid // n_valid


def iter_windows(trace: PacketTrace, n_valid: int) -> Iterator[PacketTrace]:
    """Yield consecutive windows each containing exactly *n_valid* valid packets.

    Windows are shared-memory slices of the parent trace; the final partial
    window (fewer than *n_valid* valid packets) is not emitted.
    """
    boundaries = window_boundaries(trace, n_valid)
    for k in range(boundaries.size - 1):
        yield trace.slice(int(boundaries[k]), int(boundaries[k + 1]))


class PushWindower:
    """Incremental push-driven windower: feed chunks, receive cut windows.

    The one window cutter of the engine: one-shot analyses push every
    chunk of their input through it, the resident service daemon every
    ingested batch.  Each pushed chunk is cut where its valid packets
    complete a window, counting the valid packets still pending from
    earlier pushes, so for **any** re-batching of the same packet stream
    the emitted windows are packet-identical to
    ``iter_windows(full_trace, n_valid)``.  That invariance is what lets a
    resident daemon fed arbitrary network batches reproduce a one-shot
    analysis bit for bit (``tests/test_service_properties.py``).

    Windows are copied only where they must be: a window lying entirely
    inside the pushed chunk is a zero-copy view of it, and only the one
    window that straddles the pending packets and the chunk is joined
    (:func:`~repro.streaming.packet.join_records`, a byte-level copy).

    Attributes
    ----------
    buffered_packets / buffered_valid:
        Packets (total / valid) currently held for the next incomplete
        window — at most one window's worth plus the tail of the last chunk.
    max_buffered_packets:
        High-water mark of the internal packet buffer: the pending packets
        plus the chunk being cut — bounded by the largest chunk plus one
        window's worth, which keeps the engine's memory O(chunk), not O(trace).
    n_chunks:
        Number of chunks pushed so far.
    """

    def __init__(self, n_valid: int) -> None:
        self.n_valid = check_positive_int(n_valid, "n_valid")
        self.max_buffered_packets = 0
        self.n_chunks = 0
        # pending chunk tails (views, in push order), joined only when a
        # window closes — work per window stays O(window span) even when
        # chunks are tiny relative to the window
        self._parts: list[np.ndarray] = []
        self._n_buffered = 0
        self._valid_buffered = 0

    @property
    def buffered_packets(self) -> int:
        """Packets currently buffered toward the next incomplete window."""
        return self._n_buffered

    @property
    def buffered_valid(self) -> int:
        """Valid packets currently buffered toward the next incomplete window."""
        return self._valid_buffered

    def push(self, chunk: PacketTrace) -> list[PacketTrace]:
        """Feed one chunk; return the complete windows it just closed.

        Returns ``[]`` while the buffer is still short of ``n_valid`` valid
        packets.  A trailing partial window is never emitted — it stays
        buffered until later pushes complete it (matching the drop-partial
        semantics of :func:`iter_windows` at end of stream).  The returned
        windows may be views of *chunk*, and the pending tail of *chunk* is
        kept by reference, so a caller must not overwrite a pushed buffer.
        """
        if not isinstance(chunk, PacketTrace):
            raise TypeError(f"chunks must be PacketTrace instances, got {type(chunk).__name__}")
        self.n_chunks += 1
        packets = chunk.packets
        if packets.size == 0:
            return []
        self.max_buffered_packets = max(self.max_buffered_packets, self._n_buffered + packets.size)
        valid = packets["valid"]
        ends = _window_ends(valid, self.n_valid, self._valid_buffered)
        if ends.size == 0:
            self._parts.append(packets)
            self._n_buffered += int(packets.size)
            self._valid_buffered += int(np.count_nonzero(valid))
            return []
        bounds = ends.tolist()
        head = packets[: bounds[0]]
        # only the first window can straddle the pending parts; the rest are views
        windows = [PacketTrace(join_records([*self._parts, head]) if self._parts else head)]
        windows.extend(PacketTrace(packets[start:stop]) for start, stop in zip(bounds, bounds[1:]))
        leftover = packets[bounds[-1] :]
        self._parts = [leftover] if leftover.size else []
        self._n_buffered = int(leftover.size)
        self._valid_buffered = int(np.count_nonzero(leftover["valid"]))
        return windows

    def snapshot(self) -> dict:
        """Exact buffered state for service checkpoints.

        The pending parts are joined into one structured packet array;
        join order is push order, so a restored windower cuts the same
        windows at the same boundaries as the original would have.
        """
        return {
            "n_valid": int(self.n_valid),
            "packets": join_records(self._parts),
            "n_chunks": int(self.n_chunks),
            "max_buffered_packets": int(self.max_buffered_packets),
        }

    def restore(self, state: dict) -> None:
        """Replace the buffered state with a :meth:`snapshot` payload."""
        if int(state["n_valid"]) != self.n_valid:
            raise ValueError(
                f"windower snapshot was taken with n_valid={state['n_valid']}, "
                f"cannot restore into n_valid={self.n_valid}"
            )
        trace = PacketTrace(np.asarray(state["packets"]))  # validates dtype
        if trace.n_valid >= self.n_valid:
            raise ValueError(
                f"windower snapshot buffers {trace.n_valid} valid packets; a pending "
                f"window holds fewer than n_valid={self.n_valid}"
            )
        packets = trace.packets.copy()
        self._parts = [packets] if packets.size else []
        self._n_buffered = int(packets.size)
        self._valid_buffered = trace.n_valid
        self.n_chunks = int(state["n_chunks"])
        self.max_buffered_packets = int(state["max_buffered_packets"])

