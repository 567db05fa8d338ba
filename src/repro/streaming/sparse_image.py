"""The sparse traffic image ``A_t`` (Section II, Table I).

At a given time ``t``, the ``N_V`` valid packets of one window are
aggregated into a sparse matrix ``A_t`` where ``A_t(i, j)`` is the number of
valid packets from source ``i`` to destination ``j``.  The sum of all the
entries of ``A_t`` is therefore ``N_V``.

:class:`TrafficImage` wraps the matrix in CSR form together with the
source/destination id maps (endpoint identifiers are arbitrary integers, so
rows and columns are indexed by compacted local ids).  Everything downstream
— the Table-I aggregates and the Figure-1 quantities — is computed from this
object with sparse matrix/vector operations, mirroring the paper's
D4M-style matrix formulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.streaming.packet import PacketTrace

if TYPE_CHECKING:
    from scipy import sparse

__all__ = ["TrafficImage", "traffic_image"]


@dataclass(frozen=True)
class TrafficImage:
    """One window's sparse source×destination packet-count matrix.

    Attributes
    ----------
    matrix:
        CSR matrix of shape ``(n_sources, n_destinations)`` whose ``(i, j)``
        entry is the number of valid packets from the ``i``-th distinct
        source to the ``j``-th distinct destination of the window.
    source_ids:
        Original endpoint identifier of each matrix row.
    destination_ids:
        Original endpoint identifier of each matrix column.
    """

    matrix: sparse.csr_matrix
    source_ids: np.ndarray
    destination_ids: np.ndarray

    def __post_init__(self) -> None:
        if self.matrix.shape[0] != self.source_ids.size:
            raise ValueError("matrix row count must match source_ids length")
        if self.matrix.shape[1] != self.destination_ids.size:
            raise ValueError("matrix column count must match destination_ids length")

    @property
    def n_valid(self) -> int:
        """Total number of valid packets ``Σ_{ij} A_t(i, j) = N_V``."""
        return int(self.matrix.sum())

    @property
    def n_sources(self) -> int:
        """Number of distinct sources."""
        return int(self.matrix.shape[0])

    @property
    def n_destinations(self) -> int:
        """Number of distinct destinations."""
        return int(self.matrix.shape[1])

    @property
    def n_links(self) -> int:
        """Number of distinct source–destination pairs (non-zeros of ``A_t``)."""
        return int(self.matrix.nnz)

    def to_dense(self) -> np.ndarray:
        """Dense copy of the matrix (small windows / tests only)."""
        return np.asarray(self.matrix.todense())

    def undirected_edges(self) -> np.ndarray:
        """Distinct links as an ``(m, 2)`` array of original endpoint ids.

        The pair is returned as (source id, destination id); callers building
        an undirected observed network should canonicalise and deduplicate.
        """
        coo = self.matrix.tocoo()
        return np.column_stack(
            [self.source_ids[coo.row], self.destination_ids[coo.col]]
        ).astype(np.int64)


def traffic_image(window: PacketTrace) -> TrafficImage:
    """Aggregate a window of packets into the sparse image ``A_t``.

    Only valid packets contribute.  Row/column order follows the sorted
    distinct source/destination identifiers of the window.
    """
    from scipy import sparse

    valid = window.packets[window.packets["valid"]]
    if valid.size == 0:
        # early exit: no ids to compact, and the (0, 0) shape must stay
        # consistent with the (empty) id arrays
        return TrafficImage(
            matrix=sparse.csr_matrix((0, 0), dtype=np.int64),
            source_ids=np.zeros(0, dtype=np.int64),
            destination_ids=np.zeros(0, dtype=np.int64),
        )
    src = valid["src"]
    dst = valid["dst"]
    source_ids, src_idx = np.unique(src, return_inverse=True)
    destination_ids, dst_idx = np.unique(dst, return_inverse=True)
    data = np.ones(valid.size, dtype=np.int64)
    matrix = sparse.coo_matrix(
        (data, (src_idx, dst_idx)), shape=(source_ids.size, destination_ids.size)
    ).tocsr()
    matrix.sum_duplicates()
    return TrafficImage(matrix=matrix, source_ids=source_ids, destination_ids=destination_ids)
