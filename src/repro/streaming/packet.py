"""Packet records and the :class:`PacketTrace` container.

A trace is a time-ordered sequence of packet records, stored as a structured
NumPy array so that million-packet streams are processed with vectorised
column operations rather than Python loops (see the hpc-parallel guides).
Each record carries:

* ``src`` / ``dst`` — anonymised integer endpoint identifiers,
* ``time`` — float64 timestamp (seconds, monotone non-decreasing),
* ``size`` — payload size in bytes (kept for the weighted-model extension
  the paper lists as future work), and
* ``valid`` — whether the packet counts toward the ``N_V`` window budget
  (the observatories discard malformed/irrelevant packets; the synthetic
  generator can inject such invalid packets to exercise that path).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

__all__ = ["PACKET_DTYPE", "PacketTrace", "concatenate_traces", "join_records"]

#: Structured dtype of one packet record.
PACKET_DTYPE = np.dtype(
    [
        ("src", np.int64),
        ("dst", np.int64),
        ("time", np.float64),
        ("size", np.int32),
        ("valid", np.bool_),
    ]
)


@dataclass(frozen=True)
class PacketTrace:
    """A time-ordered packet stream backed by a structured array.

    The class is a thin, immutable view: slicing and filtering return new
    traces sharing memory with the original where NumPy allows it.
    """

    packets: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.packets)
        if arr.dtype != PACKET_DTYPE:
            raise TypeError(
                f"packets must have dtype PACKET_DTYPE, got {arr.dtype}; "
                "use PacketTrace.from_arrays to build from columns"
            )
        object.__setattr__(self, "packets", arr)

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def from_arrays(
        src: Sequence[int],
        dst: Sequence[int],
        *,
        time: Sequence[float] | None = None,
        size: Sequence[int] | None = None,
        valid: Sequence[bool] | None = None,
    ) -> "PacketTrace":
        """Build a trace from per-column arrays.

        ``time`` defaults to the packet index, ``size`` to 512 bytes, and
        ``valid`` to all-True.
        """
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if src.shape != dst.shape or src.ndim != 1:
            raise ValueError("src and dst must be 1-D arrays of equal length")
        n = src.size
        records = np.empty(n, dtype=PACKET_DTYPE)
        records["src"] = src
        records["dst"] = dst
        records["time"] = np.arange(n, dtype=np.float64) if time is None else np.asarray(time, dtype=np.float64)
        records["size"] = 512 if size is None else np.asarray(size, dtype=np.int32)
        records["valid"] = True if valid is None else np.asarray(valid, dtype=np.bool_)
        return PacketTrace(records)

    @staticmethod
    def empty() -> "PacketTrace":
        """An empty trace."""
        return PacketTrace(np.empty(0, dtype=PACKET_DTYPE))

    # -- basic properties -------------------------------------------------------

    def __len__(self) -> int:
        return int(self.packets.size)

    @property
    def n_packets(self) -> int:
        """Total number of packets (valid and invalid)."""
        return len(self)

    @property
    def n_valid(self) -> int:
        """Number of valid packets (the quantity windows are measured in)."""
        return int(np.count_nonzero(self.packets["valid"]))

    @property
    def sources(self) -> np.ndarray:
        """Source column (view)."""
        return self.packets["src"]

    @property
    def destinations(self) -> np.ndarray:
        """Destination column (view)."""
        return self.packets["dst"]

    @property
    def duration(self) -> float:
        """Elapsed time between the first and last packet."""
        if len(self) == 0:
            return 0.0
        t = self.packets["time"]
        return float(t[-1] - t[0])

    def unique_endpoints(self) -> np.ndarray:
        """Sorted array of all endpoint identifiers appearing in the trace."""
        if len(self) == 0:
            return np.zeros(0, dtype=np.int64)
        return np.unique(np.concatenate([self.packets["src"], self.packets["dst"]]))

    # -- transformations --------------------------------------------------------

    def valid_only(self) -> "PacketTrace":
        """Sub-trace containing only the valid packets."""
        return PacketTrace(self.packets[self.packets["valid"]])

    def slice(self, start: int, stop: int) -> "PacketTrace":
        """Packets with index in ``[start, stop)`` (a shared-memory view)."""
        return PacketTrace(self.packets[start:stop])

    def total_bytes(self) -> int:
        """Sum of packet sizes over the valid packets."""
        return int(self.packets["size"][self.packets["valid"]].sum())

    def iter_chunks(self, chunk_size: int) -> Iterator["PacketTrace"]:
        """Iterate over consecutive fixed-size chunks (the last may be short)."""
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        for start in range(0, len(self), chunk_size):
            yield self.slice(start, start + chunk_size)


def join_records(parts: Sequence[np.ndarray]) -> np.ndarray:
    """Concatenate packet record arrays into one new contiguous array.

    ``np.concatenate`` copies a structured dtype field by field, which for
    the packed 29-byte :data:`PACKET_DTYPE` records is several times
    slower than moving the same bytes (figures in ``docs/performance.md``,
    "Window cutting").  Each part is therefore copied as a ``uint8`` view
    into a preallocated record array; strided parts are made contiguous
    first.  Always returns a fresh array, never a view of a part.
    """
    out = np.empty(sum(int(part.size) for part in parts), dtype=PACKET_DTYPE)
    if parts:
        np.concatenate(
            [np.ascontiguousarray(part, dtype=PACKET_DTYPE).view(np.uint8) for part in parts],
            out=out.view(np.uint8),
        )
    return out


def concatenate_traces(traces: Sequence[PacketTrace]) -> PacketTrace:
    """Concatenate traces in order (timestamps are taken as-is)."""
    return PacketTrace(join_records([t.packets for t in traces]))
