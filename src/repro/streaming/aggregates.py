"""Aggregate network properties (Table I) and streaming quantities (Figure 1).

Table I of the paper defines four aggregates of the traffic image ``A_t``
and gives each in two equivalent notations:

===================  ==============================  ==========================
Aggregate            Summation notation              Matrix notation
===================  ==============================  ==========================
Valid packets        ``Σ_i Σ_j A_t(i,j)``            ``1ᵀ A_t 1``
Unique links         ``Σ_i Σ_j |A_t(i,j)|₀``         ``1ᵀ |A_t|₀ 1``
Unique sources       ``Σ_i |Σ_j A_t(i,j)|₀``         ``1ᵀ |A_t 1|₀``
Unique destinations  ``Σ_j |Σ_i A_t(i,j)|₀``         ``|1ᵀ A_t|₀ 1``
===================  ==============================  ==========================

(`|·|₀` is the zero-norm that maps every non-zero to 1.)  Both forms are
implemented — the matrix form with sparse linear algebra, the summation form
with explicit reductions — and the test-suite checks they agree, which is
exactly the consistency the paper's table is asserting.

The engine's hot path no longer routes through this module: the fused
kernel (:mod:`repro.streaming.kernel`) produces the same aggregates and
histograms in one sorted pass without building ``A_t``.  The matrix
implementations here remain the authoritative, paper-shaped definitions and
serve as the kernel's cross-check oracle.

Figure 1's per-entity quantities are computed by :func:`network_quantities`:

* ``source_packets`` — packets sent by each distinct source (row sums),
* ``source_fanout`` — number of distinct destinations per source (row nnz),
* ``link_packets`` — packets per distinct source–destination pair,
* ``destination_fanin`` — number of distinct sources per destination,
* ``destination_packets`` — packets received by each distinct destination.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

import numpy as np

from repro.analysis.histogram import DegreeHistogram, degree_histogram

if TYPE_CHECKING:
    from repro.streaming.sparse_image import TrafficImage

__all__ = [
    "AggregateProperties",
    "compute_aggregates",
    "compute_aggregates_summation",
    "network_quantities",
    "quantity_histograms",
    "QUANTITY_NAMES",
]

#: Names of the five Figure-1 streaming quantities, in the paper's order.
QUANTITY_NAMES = (
    "source_packets",
    "source_fanout",
    "link_packets",
    "destination_fanin",
    "destination_packets",
)


@dataclass(frozen=True)
class AggregateProperties:
    """The four Table-I aggregates of one traffic window."""

    valid_packets: int
    unique_links: int
    unique_sources: int
    unique_destinations: int

    def as_row(self) -> dict:
        """Dictionary form used by the Table-I harness."""
        return {
            "valid_packets": self.valid_packets,
            "unique_links": self.unique_links,
            "unique_sources": self.unique_sources,
            "unique_destinations": self.unique_destinations,
        }


def compute_aggregates(image: TrafficImage) -> AggregateProperties:
    """Table-I aggregates in matrix notation (sparse linear algebra).

    ``1ᵀ A 1`` is the total packet count, ``1ᵀ |A|₀ 1`` the number of stored
    non-zeros, ``1ᵀ |A 1|₀`` the number of rows with non-zero row sum, and
    ``|1ᵀ A|₀ 1`` the number of columns with non-zero column sum.
    """
    matrix = image.matrix
    if matrix.shape[0] == 0 or matrix.shape[1] == 0:
        return AggregateProperties(0, 0, 0, 0)
    ones_rows = np.ones(matrix.shape[0], dtype=np.int64)
    ones_cols = np.ones(matrix.shape[1], dtype=np.int64)
    row_sums = matrix @ ones_cols            # A_t 1
    col_sums = ones_rows @ matrix            # 1^T A_t
    valid_packets = int(row_sums.sum())      # 1^T A_t 1
    unique_links = int(matrix.nnz)           # 1^T |A_t|_0 1
    unique_sources = int(np.count_nonzero(row_sums))
    unique_destinations = int(np.count_nonzero(col_sums))
    return AggregateProperties(
        valid_packets=valid_packets,
        unique_links=unique_links,
        unique_sources=unique_sources,
        unique_destinations=unique_destinations,
    )


def compute_aggregates_summation(image: TrafficImage) -> AggregateProperties:
    """Table-I aggregates in summation notation (explicit element loops, vectorised).

    Kept deliberately independent of :func:`compute_aggregates` so the two
    notations cross-validate each other, as in the paper's table.
    """
    coo = image.matrix.tocoo()
    if coo.nnz == 0:
        return AggregateProperties(0, 0, 0, 0)
    values = coo.data
    valid_packets = int(values.sum())
    unique_links = int(np.count_nonzero(values))
    # Σ_j A_t(i, j) per source i, then zero-norm
    row_totals = np.zeros(image.n_sources, dtype=np.int64)
    np.add.at(row_totals, coo.row, values)
    unique_sources = int(np.count_nonzero(row_totals))
    col_totals = np.zeros(image.n_destinations, dtype=np.int64)
    np.add.at(col_totals, coo.col, values)
    unique_destinations = int(np.count_nonzero(col_totals))
    return AggregateProperties(
        valid_packets=valid_packets,
        unique_links=unique_links,
        unique_sources=unique_sources,
        unique_destinations=unique_destinations,
    )


def network_quantities(image: TrafficImage) -> Mapping[str, np.ndarray]:
    """The five Figure-1 per-entity quantities of one window.

    Returns a mapping from quantity name to the vector of per-entity values
    (one entry per distinct source, link, or destination as appropriate).
    Every value is a positive integer, ready for
    :func:`repro.analysis.histogram.degree_histogram`.
    """
    matrix = image.matrix
    if matrix.shape[0] == 0 or matrix.shape[1] == 0:
        empty = np.zeros(0, dtype=np.int64)
        return {name: empty for name in QUANTITY_NAMES}
    csr = matrix.tocsr()
    csc = matrix.tocsc()
    source_packets = np.asarray(csr.sum(axis=1)).ravel().astype(np.int64)
    destination_packets = np.asarray(csc.sum(axis=0)).ravel().astype(np.int64)
    source_fanout = np.diff(csr.indptr).astype(np.int64)
    destination_fanin = np.diff(csc.indptr).astype(np.int64)
    link_packets = csr.data.astype(np.int64)
    return {
        "source_packets": source_packets,
        "source_fanout": source_fanout,
        "link_packets": link_packets,
        "destination_fanin": destination_fanin,
        "destination_packets": destination_packets,
    }


def quantity_histograms(image: TrafficImage) -> Mapping[str, DegreeHistogram]:
    """Degree histograms of the five Figure-1 quantities of one window."""
    quantities = network_quantities(image)
    histograms = {}
    for name, values in quantities.items():
        positive = values[values > 0]
        histograms[name] = degree_histogram(positive)
    return histograms
