"""Trace persistence.

Two on-disk formats are supported:

* **v1** — a single compressed ``.npz`` archive holding the packet record
  columns plus a format-version marker.  Minimal and convenient, but it can
  only be read whole, so analysis memory grows with trace length.
* **v2** — a *sharded* trace: a directory containing a ``manifest.json``
  plus consecutive ``shard-NNNNN`` files, each holding a bounded number
  of packets.  Shards can be read one at a time, which is what lets the
  single-pass engine (:func:`repro.streaming.pipeline.analyze_trace` with
  ``keep_windows=False``) analyse traces far larger than memory.  Two
  shard layouts exist: ``"npz"`` (compressed archives, the default — small
  on disk, decompressed on every read) and ``"npy"`` (uncompressed
  structured-record arrays, always memory-mapped on read, so chunks are
  read-only views of the file's pages).

:func:`save_trace` / :func:`load_trace` keep their v1 behaviour
(:func:`load_trace` transparently reads either format);
:func:`save_trace_sharded` writes v2 and :func:`iter_trace_chunks` is the
out-of-core read path shared by both formats (for v1 it degrades to
load-then-chunk, since ``.npz`` archives are not seekable per-row).
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from pathlib import Path
from typing import Iterable, Iterator, Union

import numpy as np

from repro._util.validation import check_positive_int
from repro.streaming.packet import PACKET_DTYPE, PacketTrace, join_records

__all__ = [
    "save_trace",
    "load_trace",
    "save_trace_sharded",
    "iter_trace_chunks",
    "rechunk",
    "trace_format",
    "read_json",
    "write_json_atomic",
    "ANALYSIS_COLUMNS",
    "LAYOUT_NAMES",
    "check_columns",
]


def write_json_atomic(path: Union[str, os.PathLike], payload) -> Path:
    """Write *payload* as JSON via a same-directory temp file and atomic rename.

    A reader never observes a half-written file: either the previous content
    is still in place or the new content is complete.  This is the manifest
    discipline shared by the sharded-trace format and the campaign result
    store (:mod:`repro.campaigns.store`), whose resumability depends on a
    killed writer leaving no partial records behind.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    handle = tempfile.NamedTemporaryFile(
        "w", encoding="utf-8", dir=path.parent, prefix=path.name + ".", suffix=".tmp", delete=False
    )
    try:
        with handle:
            json.dump(payload, handle, indent=1, sort_keys=False)
        os.replace(handle.name, path)
    except BaseException:
        # the temp file may already be gone (os.replace consumed it before
        # failing); the unlink is best-effort cleanup and must never mask
        # the exception that broke the write
        with contextlib.suppress(OSError):
            os.unlink(handle.name)
        raise
    return path


def read_json(path: Union[str, os.PathLike]) -> dict:
    """Read one JSON document (the inverse of :func:`write_json_atomic`)."""
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)

#: Format version written into every single-file archive.
_FORMAT_VERSION = 1
#: Format version recorded in the manifest of a sharded trace.
_SHARDED_VERSION = 2
#: Manifest file name inside a sharded-trace directory.
_MANIFEST_NAME = "manifest.json"
#: Default shard size (packets) for :func:`save_trace_sharded`.
DEFAULT_SHARD_PACKETS = 250_000
#: Shard layouts of the v2 format: compressed archives or mmappable records.
LAYOUT_NAMES = ("npz", "npy")

_COLUMNS = ("src", "dst", "time", "size", "valid")

#: The columns the window-analysis engine actually reads.  Passing these as
#: ``iter_trace_chunks(..., columns=ANALYSIS_COLUMNS)`` skips decompressing
#: the ``time``/``size`` archive members entirely — a large share of the
#: stored bytes — which is what the analysis read path does.
ANALYSIS_COLUMNS = ("src", "dst", "valid")


def check_columns(columns) -> tuple:
    """The packet columns to fill: every column for ``None``, else *columns*.

    Raises ``ValueError`` on a name that is not a packet-record field.
    """
    wanted = _COLUMNS if columns is None else tuple(columns)
    unknown = set(wanted) - set(_COLUMNS)
    if unknown:
        raise ValueError(f"unknown trace columns {sorted(unknown)}; valid: {_COLUMNS}")
    return wanted


def save_trace(trace: PacketTrace, path: Union[str, os.PathLike]) -> Path:
    """Write *trace* to a compressed v1 ``.npz`` archive and return the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(
        path,
        version=np.int64(_FORMAT_VERSION),
        **{column: trace.packets[column] for column in _COLUMNS},
    )
    # numpy appends .npz when missing; normalise the returned path
    return path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")


def _records_from_archive(archive, columns=None) -> np.ndarray:
    """Rebuild a packet record array from the named columns of one archive.

    When *columns* restricts the read, the omitted columns are left
    zero-filled and their archive members are never decompressed — callers
    opting in (the analysis engine) promise not to read them.
    """
    wanted = check_columns(columns)
    n = archive["src"].size
    records = np.empty(n, dtype=PACKET_DTYPE) if columns is None else np.zeros(n, dtype=PACKET_DTYPE)
    for column in wanted:
        records[column] = archive[column]
    return records


def trace_format(path: Union[str, os.PathLike]) -> int:
    """Return the on-disk format version of a stored trace (1 or 2).

    Raises :class:`FileNotFoundError` when nothing exists at *path*.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no stored trace at {path}")
    if path.is_dir():
        manifest = path / _MANIFEST_NAME
        if not manifest.is_file():
            raise ValueError(f"{path} is a directory but holds no {_MANIFEST_NAME}; not a sharded trace")
        return _SHARDED_VERSION
    return _FORMAT_VERSION


def _read_manifest(path: Path) -> dict:
    manifest = read_json(path / _MANIFEST_NAME)
    version = int(manifest.get("version", -1))
    if version != _SHARDED_VERSION:
        raise ValueError(f"unsupported sharded trace format version {version}")
    return manifest


def save_trace_sharded(
    trace: Union[PacketTrace, Iterable[PacketTrace]],
    path: Union[str, os.PathLike],
    *,
    shard_packets: int = DEFAULT_SHARD_PACKETS,
    layout: str = "npz",
) -> Path:
    """Write a v2 sharded trace directory and return its path.

    *trace* may be a :class:`PacketTrace` or an iterator of chunks (so huge
    traces can be written without ever being materialized); chunks are
    re-cut into shards of exactly *shard_packets* packets (last one short).
    Re-saving over an existing sharded trace replaces it: stale shards from
    a previous (longer) save are removed so the directory never mixes runs
    or layouts.

    *layout* picks the shard encoding: ``"npz"`` (compressed column
    archives, smallest on disk) or ``"npy"`` (uncompressed structured
    record arrays — larger, but read by memory-mapping instead of
    decompressing).
    """
    shard_packets = check_positive_int(shard_packets, "shard_packets")
    if layout not in LAYOUT_NAMES:
        raise ValueError(f"unknown shard layout {layout!r}; valid layouts: {LAYOUT_NAMES}")
    path = Path(path)
    if path.exists() and not path.is_dir():
        raise ValueError(
            f"{path} already exists as a file (a v1 trace?); a sharded trace needs a "
            "directory — pick another path or remove the file first"
        )
    path.mkdir(parents=True, exist_ok=True)
    # unlink before writing: a reader may still map an old npy shard, and
    # truncating a mapped file in place would fault that reader's pages
    for extension in LAYOUT_NAMES:
        for stale in path.glob(f"shard-*.{extension}"):
            stale.unlink()
    manifest_path = path / _MANIFEST_NAME
    if manifest_path.exists():
        manifest_path.unlink()
    chunks = trace.iter_chunks(shard_packets) if isinstance(trace, PacketTrace) else iter(trace)
    shards = []
    n_packets = 0
    n_valid = 0
    for index, shard in enumerate(rechunk(chunks, shard_packets)):
        name = f"shard-{index:05d}.{layout}"
        if layout == "npy":
            # ascontiguousarray: a sliced/strided chunk must land on disk as
            # plain consecutive records or np.load(mmap_mode=...) misreads it
            np.save(path / name, np.ascontiguousarray(shard.packets))
        else:
            np.savez_compressed(
                path / name,
                **{column: shard.packets[column] for column in _COLUMNS},
            )
        shards.append({"file": name, "n_packets": shard.n_packets, "n_valid": shard.n_valid})
        n_packets += shard.n_packets
        n_valid += shard.n_valid
    write_json_atomic(
        path / _MANIFEST_NAME,
        {
            "version": _SHARDED_VERSION,
            "layout": layout,
            "shard_packets": shard_packets,
            "n_packets": n_packets,
            "n_valid": n_valid,
            "shards": shards,
        },
    )
    return path


def _load_v1_records(path: Path, columns: tuple | None = None) -> np.ndarray:
    """Read one v1 ``.npz`` archive into a packet record array (version-checked)."""
    with np.load(path) as archive:
        version = int(archive["version"])
        if version != _FORMAT_VERSION:
            raise ValueError(f"unsupported trace format version {version}")
        return _records_from_archive(archive, columns)


def load_trace(path: Union[str, os.PathLike]) -> PacketTrace:
    """Load a trace written by :func:`save_trace` or :func:`save_trace_sharded`."""
    path = Path(path)
    if trace_format(path) != _SHARDED_VERSION:
        return PacketTrace(_load_v1_records(path))
    # copy shard by shard so at most one shard is mapped (one open file) at a time
    records = np.empty(int(_read_manifest(path)["n_packets"]), dtype=PACKET_DTYPE)
    start = 0
    for shard in _iter_shards(path):
        records[start : start + shard.n_packets] = shard.packets
        start += shard.n_packets
    if start != records.size:
        raise ValueError(f"sharded trace {path} holds {start} packets, its manifest says {records.size}")
    return PacketTrace(records)


def iter_trace_chunks(
    path: Union[str, os.PathLike],
    chunk_packets: int | None = None,
    *,
    columns: tuple | None = None,
) -> Iterator[PacketTrace]:
    """Stream a stored trace as consecutive :class:`PacketTrace` chunks.

    For a v2 sharded trace this reads one shard at a time — memory stays
    O(shard) regardless of trace length.  For a v1 single-file trace the
    archive must be loaded whole before chunking (``.npz`` offers no partial
    reads); convert with :func:`save_trace_sharded` for true out-of-core use.

    ``chunk_packets`` re-cuts the stored shards to a chosen chunk size
    (splitting and coalescing across shard boundaries as needed); by default
    the stored shard boundaries are used as-is.

    ``columns`` restricts which packet columns are decoded (e.g.
    :data:`ANALYSIS_COLUMNS`); the rest read as zeros and their compressed
    archive members are skipped entirely.  Only opt in when downstream code
    never reads the omitted columns.  (No-op for ``npy``-layout shards,
    whose records are mapped whole.)

    ``npy``-layout shards are memory-mapped (``np.load(..., mmap_mode="r")``),
    so their chunks are read-only views of the file's pages; ``npz`` shards
    and v1 archives are decompressed onto the heap.
    """
    path = Path(path)
    if chunk_packets is not None:
        chunk_packets = check_positive_int(chunk_packets, "chunk_packets")
    if trace_format(path) == _SHARDED_VERSION:
        chunks = _iter_shards(path, columns)
        if chunk_packets is not None:
            chunks = rechunk(chunks, chunk_packets)
        return chunks
    trace = PacketTrace(_load_v1_records(path, columns))
    # iter_chunks already cuts to the exact size; no rechunk pass needed
    return trace.iter_chunks(chunk_packets or max(1, trace.n_packets))


def _iter_shards(path: Path, columns: tuple | None = None) -> Iterator[PacketTrace]:
    """Yield the shards of a v2 trace in manifest order, one at a time."""
    manifest = _read_manifest(path)
    layout = str(manifest.get("layout", "npz"))
    for entry in manifest["shards"]:
        if layout == "npy":
            records = np.load(path / entry["file"], mmap_mode="r")
            if records.dtype != PACKET_DTYPE:
                raise ValueError(
                    f"shard {entry['file']} of {path} has dtype {records.dtype}, "
                    "not PACKET_DTYPE; the sharded trace is corrupt"
                )
        else:
            with np.load(path / entry["file"]) as archive:
                records = _records_from_archive(archive, columns)
        yield PacketTrace(records)


def rechunk(chunks: Iterable[PacketTrace], chunk_packets: int) -> Iterator[PacketTrace]:
    """Re-cut a chunk stream into chunks of exactly *chunk_packets* packets.

    The final chunk may be short.  Only up to one output chunk is buffered,
    so re-chunking preserves the out-of-core property of the input stream.
    """
    chunk_packets = check_positive_int(chunk_packets, "chunk_packets")
    pending: list[np.ndarray] = []
    n_pending = 0
    for chunk in chunks:
        arr = chunk.packets
        while arr.size:
            take = min(int(arr.size), chunk_packets - n_pending)
            pending.append(arr[:take])
            n_pending += take
            arr = arr[take:]
            if n_pending == chunk_packets:
                yield PacketTrace(pending[0] if len(pending) == 1 else join_records(pending))
                pending = []
                n_pending = 0
    if n_pending:
        yield PacketTrace(pending[0] if len(pending) == 1 else join_records(pending))
