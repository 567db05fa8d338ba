"""Weighted (byte-count) traffic quantities — the paper's weighted-edge extension.

The paper studies the *unweighted* model and lists weighted edges as future
work: "the common weights to study subsequently could be the number of
packets or number of bytes sent over a link" (Section II).  Packet counts are
already what :mod:`repro.streaming.aggregates` measures; this module adds the
byte-weighted view so that extension can be explored:

* :func:`byte_image` — the byte-weighted analogue of the traffic image
  ``B_t(i, j) = total bytes from source i to destination j``,
* :func:`weighted_quantities` — byte-weighted versions of the Figure-1
  quantities (source bytes, link bytes, destination bytes), and
* :func:`byte_histograms` — histograms of those quantities after bucketing
  bytes into kilobyte units so the binary-log pooling machinery applies
  unchanged.

The same pooling/fitting pipeline runs on these quantities, which lets a user
check whether the Zipf–Mandelbrot description carries over from packets to
bytes on synthetic traffic.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro._util.validation import check_positive_int
from repro.analysis.histogram import DegreeHistogram, degree_histogram
from repro.streaming.packet import PacketTrace
from repro.streaming.sparse_image import TrafficImage

__all__ = ["byte_image", "weighted_quantities", "byte_histograms", "WEIGHTED_QUANTITY_NAMES"]

#: Names of the byte-weighted streaming quantities.
WEIGHTED_QUANTITY_NAMES = ("source_bytes", "link_bytes", "destination_bytes")


def byte_image(window: PacketTrace) -> TrafficImage:
    """Byte-weighted sparse traffic image ``B_t`` of one window.

    Identical in structure to :func:`repro.streaming.sparse_image.traffic_image`
    but each entry accumulates the packet *sizes* instead of the packet count,
    so ``Σ_ij B_t(i, j)`` equals the window's total valid bytes.
    """
    from scipy import sparse

    valid = window.packets[window.packets["valid"]]
    if valid.size == 0:
        return TrafficImage(
            matrix=sparse.csr_matrix((0, 0), dtype=np.int64),
            source_ids=np.zeros(0, dtype=np.int64),
            destination_ids=np.zeros(0, dtype=np.int64),
        )
    source_ids, src_idx = np.unique(valid["src"], return_inverse=True)
    destination_ids, dst_idx = np.unique(valid["dst"], return_inverse=True)
    matrix = sparse.coo_matrix(
        (valid["size"].astype(np.int64), (src_idx, dst_idx)),
        shape=(source_ids.size, destination_ids.size),
    ).tocsr()
    matrix.sum_duplicates()
    return TrafficImage(matrix=matrix, source_ids=source_ids, destination_ids=destination_ids)


def weighted_quantities(image: TrafficImage) -> Mapping[str, np.ndarray]:
    """Byte-weighted Figure-1 quantities of one byte image.

    Returns per-source, per-link, and per-destination byte totals (positive
    integers), analogous to the packet-count quantities.
    """
    matrix = image.matrix
    if matrix.shape[0] == 0 or matrix.shape[1] == 0:
        empty = np.zeros(0, dtype=np.int64)
        return {name: empty for name in WEIGHTED_QUANTITY_NAMES}
    csr = matrix.tocsr()
    csc = matrix.tocsc()
    return {
        "source_bytes": np.asarray(csr.sum(axis=1)).ravel().astype(np.int64),
        "link_bytes": csr.data.astype(np.int64),
        "destination_bytes": np.asarray(csc.sum(axis=0)).ravel().astype(np.int64),
    }


def byte_histograms(image: TrafficImage, *, bucket_bytes: int = 1024) -> Mapping[str, DegreeHistogram]:
    """Histograms of the byte-weighted quantities in *bucket_bytes* units.

    Byte totals are divided into buckets (kilobytes by default, rounded up so
    every observed entity lands in bucket >= 1), which keeps the support
    integer-valued and compatible with the binary-log pooling and the ZM /
    power-law fitting used for the packet quantities.
    """
    bucket_bytes = check_positive_int(bucket_bytes, "bucket_bytes")
    quantities = weighted_quantities(image)
    histograms = {}
    for name, values in quantities.items():
        positive = values[values > 0]
        if positive.size == 0:
            histograms[name] = degree_histogram([])
            continue
        buckets = np.maximum(1, np.ceil(positive / bucket_bytes).astype(np.int64))
        histograms[name] = degree_histogram(buckets)
    return histograms
