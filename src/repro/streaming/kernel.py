"""Fused sort-based window kernel.

The per-window hot path of the engine — Table-I aggregates plus all five
Figure-1 quantity histograms — used to be computed through the sparse matrix
``A_t`` (:mod:`repro.streaming.sparse_image`): two ``np.unique`` calls to
compact the endpoint ids, a scipy COO→CSR round-trip, CSR→CSC conversion,
and one ``np.unique`` per histogram.  All of those products are integer
reductions over the multiset of valid ``(src, dst)`` pairs, so one sorted
pass is enough:

1. pack each valid pair into a 64-bit key ``(src << 32) | dst`` and sort
   (the window dispatch packs the full columns, then drops invalid keys);
2. run-length encode the sorted keys — run starts are the distinct links,
   run lengths are ``link_packets``;
3. the high halves of the distinct keys arrive *already grouped by source*
   (the source occupies the top bits), so a second run-length pass yields
   ``source_fanout`` (run lengths) and ``source_packets`` (per-run sums of
   ``link_packets``), plus the distinct-source count;
4. one sort of the ``m`` distinct links (``m ≤ n``, typically far smaller)
   re-keyed as ``(dst << 32) | link_index`` groups them by destination —
   the same order as a stable argsort, at the cost of a plain sort — for
   ``destination_fanin`` / ``destination_packets``;
5. every quantity is a bounded positive integer (``≤ N_V``), so the five
   histograms are one ``np.bincount`` over the concatenated quantity
   values, each shifted past the quantities before it, whose nonzero
   entries form the window's
   :class:`~repro.analysis.histogram.HistogramBlock`.

The kernel is integer-exact: :func:`fused_products` returns byte-identical
histograms to the :class:`~repro.streaming.sparse_image.TrafficImage` route
(:func:`image_products`, kept as the cross-check oracle — the property
harness in ``tests/test_streaming_kernel.py`` pins the equivalence).  The
``TrafficImage`` itself is no longer built on the hot path; callers that
need the matrix view (Table-I drivers, topology analysis) construct it
lazily via :func:`repro.streaming.sparse_image.traffic_image` as before.

Packing requires endpoint ids in ``[0, 2**32)``; :func:`window_products`
falls back to the oracle path when a *valid* packet carries a wider id, so
the kernel is a pure optimisation, never a behaviour change.

The module also defines the *window payload* shipped to worker processes by
the batched process backend: the raw ``src``/``dst``/``valid`` column
arrays only.  ``time`` and ``size`` are never read by the kernel, and the
29-byte structured packet records would otherwise be re-pickled wholesale;
contiguous column buffers serialize without a repack and cut the per-window
payload to ~16 bytes per packet (the ``valid`` column is elided entirely for
all-valid windows).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.analysis.histogram import HistogramBlock
from repro.streaming.aggregates import (
    AggregateProperties,
    QUANTITY_NAMES,
    compute_aggregates,
    quantity_histograms,
)
from repro.streaming.packet import PacketTrace

__all__ = [
    "KERNEL_MAX_ID",
    "WindowPayload",
    "window_payload",
    "payload_columns",
    "valid_columns",
    "packable",
    "fused_products",
    "image_products",
    "window_products",
    "payload_products",
]

#: Largest endpoint id the packed-key kernel supports (ids are packed into
#: one uint64 as ``(src << 32) | dst``).
KERNEL_MAX_ID = 2**32 - 1

#: Worker payload of one window: ``(src, dst, valid)`` column arrays, with
#: ``valid is None`` meaning every packet is valid (the common case, elided
#: from the pickle).  ``time``/``size`` are deliberately absent — the kernel
#: never reads them.
WindowPayload = Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]

#: Per-window analysis products: the Table-I aggregates and the five
#: Figure-1 histograms as one packed block, rows in
#: :data:`~repro.streaming.aggregates.QUANTITY_NAMES` order.
WindowProducts = Tuple[AggregateProperties, HistogramBlock]

_EMPTY_INT64 = np.zeros(0, dtype=np.int64)


def window_payload(window: PacketTrace) -> WindowPayload:
    """Extract the shippable columns of one window.

    Copies ``src``/``dst`` out of the structured record array into
    contiguous buffers (strided structured columns pickle poorly) and drops
    ``time``/``size``.  The ``valid`` column is replaced by ``None`` when
    every packet is valid so it costs nothing on clean traffic.
    """
    packets = window.packets
    src = np.ascontiguousarray(packets["src"])
    dst = np.ascontiguousarray(packets["dst"])
    valid = packets["valid"]
    return (src, dst, np.ascontiguousarray(valid) if not valid.all() else None)


def payload_columns(payload: WindowPayload) -> Tuple[np.ndarray, np.ndarray]:
    """Resolve a payload to the valid-only ``(src, dst)`` columns (worker side)."""
    src, dst, valid = payload
    if valid is None:
        return src, dst
    return src[valid], dst[valid]


def valid_columns(window: PacketTrace) -> Tuple[np.ndarray, np.ndarray]:
    """Valid-only ``(src, dst)`` columns of an in-memory window."""
    packets = window.packets
    valid = packets["valid"]
    if valid.all():
        return np.ascontiguousarray(packets["src"]), np.ascontiguousarray(packets["dst"])
    return packets["src"][valid], packets["dst"][valid]


def packable(src: np.ndarray, dst: np.ndarray) -> bool:
    """Whether every endpoint id fits the packed ``(src << 32) | dst`` key."""
    if src.size == 0:
        return True
    # a negative id sets the sign bit of the OR, an id >= 2**32 a bit at or
    # above bit 32, so the OR of every id bounds both endpoints at once
    ids = int(np.bitwise_or.reduce(src)) | int(np.bitwise_or.reduce(dst))
    return 0 <= ids <= KERNEL_MAX_ID


def _packed_keys(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Fresh ``(src << 32) | dst`` uint64 keys; ids must be :func:`packable`.

    Shifts the ``uint64`` views of the int64 columns into one new buffer:
    packable ids read the same either way, and shifting the int64 column
    itself would overflow signed.
    """
    key = np.left_shift(src.view(np.uint64), np.uint64(32))
    key |= dst.view(np.uint64)
    return key


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Indices where a new run begins in an already-sorted array."""
    change = np.empty(values.size, dtype=bool)
    change[0] = True
    np.not_equal(values[1:], values[:-1], out=change[1:])
    return np.flatnonzero(change)


def _empty_products() -> WindowProducts:
    empty = np.zeros(len(QUANTITY_NAMES), dtype=np.int64)
    block = HistogramBlock(
        QUANTITY_NAMES, _EMPTY_INT64, _EMPTY_INT64, np.zeros(len(QUANTITY_NAMES) + 1, dtype=np.int64),
        empty, empty,
    )
    return AggregateProperties(0, 0, 0, 0), block


def fused_products(src: np.ndarray, dst: np.ndarray) -> WindowProducts:
    """Aggregates and histograms of one window from its valid columns.

    *src*/*dst* must be the valid-only endpoint columns with every id in
    ``[0, 2**32)`` (see :func:`packable`); :func:`window_products` handles
    the dispatch.  Returns products byte-identical to :func:`image_products`.
    """
    return _keyed_products(_packed_keys(src, dst))


def _keyed_products(key: np.ndarray) -> WindowProducts:
    """The fused kernel over the packed keys of the valid packets.

    Sorts *key* in place, so callers pass a fresh array they own.
    """
    n = int(key.size)
    if n == 0:
        return _empty_products()

    key.sort()

    # distinct links and packets per link
    starts = _run_starts(key)
    m = int(starts.size)
    bounds = np.append(starts, n)
    link_packets = np.diff(bounds)
    unique_keys = key[starts]

    # sources: the sorted keys group by source already (top 32 bits)
    u_src = unique_keys >> np.uint64(32)
    src_starts = _run_starts(u_src)
    src_bounds = np.append(src_starts, m)
    source_fanout = np.diff(src_bounds)
    source_packets = np.add.reduceat(link_packets, src_starts)

    # destinations: regroup the m distinct links (not the n packets) by dst.
    # Sorting (dst << 32) | link_index is the stable argsort of the dsts:
    # the high halves come out grouped by dst, the low halves are the order
    # (link indices are < m <= n, far below 2**32)
    dst_keys = (unique_keys << np.uint64(32)) | np.arange(m, dtype=np.uint64)
    dst_keys.sort()
    dst_order = (dst_keys & np.uint64(KERNEL_MAX_ID)).astype(np.intp)
    dst_starts = _run_starts(dst_keys >> np.uint64(32))
    dst_bounds = np.append(dst_starts, m)
    destination_fanin = np.diff(dst_bounds)
    destination_packets = np.add.reduceat(link_packets[dst_order], dst_starts)

    aggregates = AggregateProperties(
        valid_packets=n,
        unique_links=m,
        unique_sources=int(src_starts.size),
        unique_destinations=int(dst_starts.size),
    )
    # every value is a positive integer <= n, so the five histograms are one
    # bincount over the concatenated values, each quantity shifted past the
    # ones before it by their dmax; its nonzero entries are the packed block
    values = np.concatenate(
        (source_packets, source_fanout, link_packets, destination_fanin, destination_packets)
    )
    lengths = np.array([src_starts.size, src_starts.size, m, dst_starts.size, dst_starts.size])
    dmax = np.maximum.reduceat(values, np.cumsum(lengths) - lengths)
    edges = np.zeros(dmax.size + 1, dtype=np.int64)
    np.cumsum(dmax, out=edges[1:])
    values += np.repeat(edges[:-1] - 1, lengths)
    dense = np.bincount(values)
    position = dense.nonzero()[0]
    starts = np.searchsorted(position, edges)
    degrees = position - np.repeat(edges[:-1] - 1, starts[1:] - starts[:-1])
    block = HistogramBlock(QUANTITY_NAMES, degrees, dense[position], starts, dmax, lengths)
    return aggregates, block


def image_products(src: np.ndarray, dst: np.ndarray) -> WindowProducts:
    """The legacy ``TrafficImage`` route, kept as the kernel's oracle.

    Builds the sparse matrix from the valid columns and computes the same
    products through :func:`~repro.streaming.aggregates.compute_aggregates`
    and :func:`~repro.streaming.aggregates.quantity_histograms` — the
    independent implementation the property harness checks the kernel
    against, and the fallback for ids the packed key cannot hold.
    """
    from repro.streaming.sparse_image import traffic_image

    image = traffic_image(PacketTrace.from_arrays(src, dst))
    return compute_aggregates(image), HistogramBlock.from_histograms(quantity_histograms(image))


def _column_products(
    src: np.ndarray, dst: np.ndarray, valid: Optional[np.ndarray]
) -> WindowProducts:
    """Dispatch one window's columns (``valid=None``: all valid) to a kernel.

    When every id packs, the keys are built from the full (possibly
    strided) columns and the one contiguous key array is compressed by
    *valid* — cheaper than fancy-indexing two strided record columns.
    Only the valid packets must pack, so a window whose *invalid* packets
    carry wide ids filters first and still takes the fused kernel.
    """
    if packable(src, dst):
        key = _packed_keys(src, dst)
        return _keyed_products(key if valid is None else key[valid])
    if valid is not None:
        src, dst = src[valid], dst[valid]
    if packable(src, dst):
        return fused_products(src, dst)
    return image_products(src, dst)


def window_products(window: PacketTrace) -> WindowProducts:
    """Analyse one window: fused kernel when the ids pack, oracle otherwise."""
    packets = window.packets
    return _column_products(packets["src"], packets["dst"], packets["valid"])


def payload_products(payload: WindowPayload) -> WindowProducts:
    """Analyse one shipped window payload (worker side of the process backend)."""
    return _column_products(*payload)
