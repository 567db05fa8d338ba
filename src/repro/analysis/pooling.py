"""Binary-logarithmic pooling of degree distributions.

The paper compares every data set and every model through the *differential
cumulative probability* pooled in binary-logarithmic bins (Section II-A):

``D_t(d_i) = P_t(d_i) − P_t(d_{i−1})`` with ``d_i = 2^i``.

That is: the total probability mass falling in the half-open degree interval
``(2^{i−1}, 2^i]``.  Using the same pooling for observations and for model
curves makes the comparison consistent across data sets whose supports span
five or more orders of magnitude.

:func:`pool_differential_cumulative` pools one histogram or one model pmf;
:func:`aggregate_pooled` combines the pooled vectors of many consecutive
windows into the per-bin mean ``D(d_i)`` and standard deviation ``σ(d_i)``
reported in Figure 3's error bars.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro._util.validation import check_positive_int
from repro.analysis.histogram import DegreeHistogram, HistogramBlock

__all__ = [
    "PooledDistribution",
    "PooledBlock",
    "pool_block",
    "log2_bin_edges",
    "log2_bin_index",
    "pool_differential_cumulative",
    "pool_probability_vector",
    "aggregate_pooled",
    "bin_alignment",
]


def log2_bin_edges(dmax: int) -> np.ndarray:
    """Upper bin edges ``d_i = 2^i`` needed to cover degrees ``1..dmax``.

    The first edge is ``2^0 = 1`` (the bin containing only ``d = 1``) and the
    last edge is the smallest power of two ``>= dmax``.
    """
    dmax = check_positive_int(dmax, "dmax")
    n_bins = int(np.ceil(np.log2(dmax))) + 1 if dmax > 1 else 1
    return 2 ** np.arange(n_bins, dtype=np.int64)


def bin_alignment(source_edges: np.ndarray, target_edges: np.ndarray) -> np.ndarray:
    """For each of *target_edges*, the index of the source bin with that edge.

    Entries with no source bin are ``-1``, so ``np.append(values, 0.0)[index]``
    re-expresses source *values* on the target bins, zero-filled.  Should an
    edge repeat, only its last target entry is filled, from its last source
    bin.
    """
    index = np.full(len(target_edges), -1, dtype=np.int64)
    pos = {int(e): i for i, e in enumerate(target_edges)}
    for j, e in enumerate(source_edges):
        i = pos.get(int(e))
        if i is not None:
            index[i] = j
    return index


def _log2_bin_index_unchecked(arr: np.ndarray) -> np.ndarray:
    """The binning formula of :func:`log2_bin_index`, minus the >= 1 guard.

    The single definition of the bin rule — shared by the validated public
    helper and the hot pooling path (whose degrees are already validated by
    :class:`~repro.analysis.histogram.DegreeHistogram`).
    """
    return np.ceil(np.log2(arr.astype(np.float64))).astype(np.int64)


def log2_bin_index(degrees: np.ndarray) -> np.ndarray:
    """Index ``i`` of the bin ``(2^{i-1}, 2^i]`` containing each degree.

    Degree 1 maps to bin 0, degree 2 to bin 1, degrees 3–4 to bin 2,
    degrees 5–8 to bin 3, and so on.
    """
    arr = np.asarray(degrees, dtype=np.int64)
    if np.any(arr < 1):
        raise ValueError("degrees must be >= 1")
    return _log2_bin_index_unchecked(arr)


@dataclass(frozen=True)
class PooledDistribution:
    """Differential cumulative probability pooled in binary-log bins.

    Attributes
    ----------
    bin_edges:
        Upper bin edges ``d_i = 2^i``; ``bin_edges[i]`` closes bin ``i``.
    values:
        Pooled probabilities ``D(d_i)``; same length as *bin_edges*.
    sigma:
        Per-bin standard deviation across windows, or ``None`` for a single
        window / analytic model curve.
    total:
        Number of underlying observations (0 for analytic curves).
    """

    bin_edges: np.ndarray
    values: np.ndarray
    sigma: np.ndarray | None = None
    total: int = 0

    def __post_init__(self) -> None:
        edges = np.asarray(self.bin_edges, dtype=np.int64)
        values = np.asarray(self.values, dtype=np.float64)
        if edges.ndim != 1 or values.ndim != 1 or edges.shape != values.shape:
            raise ValueError("bin_edges and values must be 1-D arrays of equal length")
        if edges.size and np.any(edges < 1):
            raise ValueError("bin edges must be >= 1")
        sigma = self.sigma
        if sigma is not None:
            sigma = np.asarray(sigma, dtype=np.float64)
            if sigma.shape != values.shape:
                raise ValueError("sigma must have the same shape as values")
        object.__setattr__(self, "bin_edges", edges)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "sigma", sigma)

    @property
    def n_bins(self) -> int:
        """Number of logarithmic bins."""
        return int(self.bin_edges.size)

    def nonzero(self) -> "PooledDistribution":
        """Restrict to bins with strictly positive pooled probability."""
        mask = self.values > 0
        return PooledDistribution(
            bin_edges=self.bin_edges[mask],
            values=self.values[mask],
            sigma=None if self.sigma is None else self.sigma[mask],
            total=self.total,
        )

    def align_to(self, edges: np.ndarray) -> "PooledDistribution":
        """Re-express this pooled vector on the given *edges* (zero-filled).

        Bins present here but absent from *edges* are dropped; bins in
        *edges* with no counterpart here get probability zero.  Used to
        compare distributions measured on windows with different ``dmax``.
        """
        edges = np.asarray(edges, dtype=np.int64)
        index = bin_alignment(self.bin_edges, edges)
        values = np.append(self.values, 0.0)[index]
        sigma = None if self.sigma is None else np.append(self.sigma, 0.0)[index]
        return PooledDistribution(bin_edges=edges, values=values, sigma=sigma, total=self.total)

    def probability_sum(self) -> float:
        """Total pooled probability (≈ 1 for a full distribution)."""
        return float(self.values.sum())

    @classmethod
    def _trusted(
        cls,
        bin_edges: np.ndarray,
        values: np.ndarray,
        sigma: np.ndarray | None,
        total: int,
    ) -> "PooledDistribution":
        """Internal fast constructor for already-validated arrays.

        The per-window pooling fold constructs one of these per quantity per
        window; skipping ``__post_init__`` re-validation for arrays the
        pooling code just built keeps the single-pass engine's fold cheap.
        Inputs must already satisfy the constructor contract (int64 edges,
        float64 values of equal length).
        """
        self = object.__new__(cls)
        object.__setattr__(self, "bin_edges", bin_edges)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "total", total)
        return self


def pool_differential_cumulative(
    histogram: DegreeHistogram,
    *,
    n_bins: int | None = None,
) -> PooledDistribution:
    """Pool a degree histogram into the differential cumulative form.

    Parameters
    ----------
    histogram:
        Empirical degree histogram ``n_t(d)``.
    n_bins:
        Force this many bins (useful to align several windows); by default
        just enough bins to cover ``histogram.dmax``.

    Returns
    -------
    PooledDistribution
        ``D_t(d_i)`` over the bins ``d_i = 2^i``.
    """
    total = histogram.total
    if total == 0:
        edges = 2 ** np.arange(n_bins or 0, dtype=np.int64)
        return PooledDistribution(bin_edges=edges, values=np.zeros(edges.size), total=0)
    edges = log2_bin_edges(histogram.dmax)
    if n_bins is not None:
        n_bins = check_positive_int(n_bins, "n_bins")
        if n_bins < edges.size:
            raise ValueError(
                f"n_bins={n_bins} cannot cover dmax={histogram.dmax} (needs {edges.size} bins)"
            )
        edges = 2 ** np.arange(n_bins, dtype=np.int64)
    # histogram degrees are validated >= 1, so the unchecked index is safe;
    # the weighted bincount accumulates per-bin probabilities in the same
    # input order as the historical np.add.at scatter — bit-identical values
    bin_idx = _log2_bin_index_unchecked(histogram.degrees)
    values = np.bincount(bin_idx, weights=histogram.probability(), minlength=edges.size)
    return PooledDistribution._trusted(edges, values, None, total)


class PooledBlock(Mapping[str, PooledDistribution]):
    """One window's pooled vectors of several quantities, one row each.

    Row ``k`` pools quantity ``names[k]``: ``values[k, :n_bins[k]]`` is its
    ``D_t(d_i)``, and the row is ``0.0`` beyond ``n_bins[k]`` up to the
    common width.  ``totals[k]`` is the row's observation count.  As a
    mapping it reads each row back as the :class:`PooledDistribution` that
    :func:`pool_differential_cumulative` gives for that quantity.
    """

    def __init__(self, names, values: np.ndarray, n_bins: np.ndarray, totals: np.ndarray) -> None:
        self.names = tuple(names)
        self.values = values
        self.n_bins = n_bins
        self.totals = totals

    def vector(self, name: str) -> np.ndarray:
        """The pooled values of one quantity (a read-only view)."""
        row = self._row(name)
        return self.values[row, : int(self.n_bins[row])]

    def _row(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(name) from None

    def __getitem__(self, name: str) -> PooledDistribution:
        row = self._row(name)
        edges = 2 ** np.arange(int(self.n_bins[row]), dtype=np.int64)
        return PooledDistribution._trusted(
            edges, self.vector(name).copy(), None, int(self.totals[row])
        )

    def __iter__(self):
        return iter(self.names)

    def __len__(self) -> int:
        return len(self.names)

    def select(self, names: Sequence[str]) -> "PooledBlock":
        """The rows of just *names*, in that order (``self`` when unchanged)."""
        names = tuple(names)
        if names == self.names:
            return self
        rows = [self._row(name) for name in names]
        return PooledBlock(names, self.values[rows], self.n_bins[rows], self.totals[rows])


def pool_block(block: HistogramBlock) -> PooledBlock:
    """Pool every row of a :class:`HistogramBlock` with one weighted ``bincount``.

    Each entry, degree ``d`` of row ``k``, lands in bin column
    ``ceil(log2(d))`` of row ``k`` with weight ``count / total`` — the
    terms :func:`pool_differential_cumulative` sums, in the same degree
    order, so each row is bit-identical to pooling that quantity alone.
    """
    bins = _log2_bin_index_unchecked(block.degrees)
    # a row's last entry is its largest degree, so its bin closes the row's
    # vector; an empty row has no bins, as pooling an empty histogram gives
    bounds = block.starts.tolist()
    n_bins = [int(bins[high - 1]) + 1 if high > low else 0 for low, high in zip(bounds, bounds[1:])]
    rows, width = len(n_bins), max(n_bins, default=0)
    per_row = block.starts[1:] - block.starts[:-1]
    bins += np.repeat(np.arange(rows) * width, per_row)
    weights = block.counts / np.repeat(block.totals, per_row)
    values = np.bincount(bins, weights=weights, minlength=rows * width)
    # an empty bincount is int64 even with weights
    values = values.astype(np.float64, copy=False)
    return PooledBlock(
        block.names, values.reshape(rows, width), np.array(n_bins, dtype=np.int64), block.totals
    )


def pool_probability_vector(probability: Sequence[float]) -> PooledDistribution:
    """Pool a dense model pmf (indexed by ``d-1``) into binary-log bins.

    This is how analytic model curves (Zipf–Mandelbrot, PALU) are brought
    onto the same axes as pooled measurements before fitting or plotting.
    """
    p = np.asarray(probability, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("probability must be a non-empty 1-D vector")
    if np.any(p < 0):
        raise ValueError("probability entries must be non-negative")
    dmax = p.size
    edges = log2_bin_edges(dmax)
    degrees = np.arange(1, dmax + 1, dtype=np.int64)
    bin_idx = log2_bin_index(degrees)
    values = np.zeros(edges.size, dtype=np.float64)
    np.add.at(values, bin_idx, p)
    return PooledDistribution(bin_edges=edges, values=values, total=0)


def aggregate_pooled(pooled: Sequence[PooledDistribution]) -> PooledDistribution:
    """Combine pooled vectors from consecutive windows into mean ``D`` and ``σ``.

    The result spans the union of the input bin ranges; windows that do not
    reach a given bin contribute probability zero there, matching how the
    paper aggregates many consecutive equal-``N_V`` windows.
    """
    pooled = list(pooled)
    if not pooled:
        raise ValueError("aggregate_pooled requires at least one pooled distribution")
    n_bins = max(p.n_bins for p in pooled)
    edges = 2 ** np.arange(n_bins, dtype=np.int64)
    stacked = np.zeros((len(pooled), n_bins), dtype=np.float64)
    for row, p in enumerate(pooled):
        aligned = p.align_to(edges)
        stacked[row] = aligned.values
    mean = stacked.mean(axis=0)
    sigma = stacked.std(axis=0, ddof=0)
    total = int(sum(p.total for p in pooled))
    return PooledDistribution(bin_edges=edges, values=mean, sigma=sigma, total=total)
