"""Degree histograms and probability distributions.

Section II-A of the paper defines, for a network quantity ``d`` computed
from the window matrix ``A_t``:

* the histogram ``n_t(d)`` — number of nodes (or links) whose quantity
  equals ``d``,
* the probability ``p_t(d) = n_t(d) / Σ_d n_t(d)``, and
* the cumulative probability ``P_t(d) = Σ_{i<=d} p_t(i)``.

:class:`DegreeHistogram` bundles those three views with the raw degree
values so downstream pooling and fitting never have to recompute them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro._util.validation import check_integer_array

__all__ = [
    "DegreeHistogram",
    "HistogramBlock",
    "degree_histogram",
    "probability_from_counts",
    "cumulative_probability",
]


@dataclass(frozen=True)
class DegreeHistogram:
    """Histogram of a positive-integer network quantity.

    Attributes
    ----------
    degrees:
        Sorted, unique degree values with non-zero counts.
    counts:
        Number of observations at each degree (same length as *degrees*).
    """

    degrees: np.ndarray
    counts: np.ndarray
    _dense_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        degrees = check_integer_array(self.degrees, "degrees", minimum=1)
        counts = check_integer_array(self.counts, "counts", minimum=0)
        if degrees.shape != counts.shape:
            raise ValueError("degrees and counts must have the same shape")
        if degrees.size and np.any(np.diff(degrees) <= 0):
            raise ValueError("degrees must be strictly increasing")
        object.__setattr__(self, "degrees", degrees)
        object.__setattr__(self, "counts", counts)

    # -- basic quantities ----------------------------------------------------

    @property
    def total(self) -> int:
        """Total number of observations ``Σ_d n(d)``."""
        return int(self.counts.sum())

    @property
    def dmax(self) -> int:
        """Largest observed degree (``argmax(D(d) > 0)`` in the paper, Eq. 1)."""
        return int(self.degrees[-1]) if self.degrees.size else 0

    def probability(self) -> np.ndarray:
        """Empirical probability ``p(d)`` aligned with :attr:`degrees`."""
        if self.total == 0:
            return np.zeros_like(self.counts, dtype=np.float64)
        return self.counts / self.total

    def cumulative(self) -> np.ndarray:
        """Empirical cumulative probability ``P(d)`` aligned with :attr:`degrees`."""
        return np.cumsum(self.probability())

    def dense_counts(self, dmax: int | None = None) -> np.ndarray:
        """Counts on the dense support ``1..dmax`` (zeros where unobserved)."""
        dmax = int(dmax) if dmax is not None else self.dmax
        if dmax < 1:
            return np.zeros(0, dtype=np.int64)
        key = ("dense", dmax)
        if key not in self._dense_cache:
            dense = np.zeros(dmax, dtype=np.int64)
            mask = self.degrees <= dmax
            dense[self.degrees[mask] - 1] = self.counts[mask]
            self._dense_cache[key] = dense
        return self._dense_cache[key].copy()

    def dense_probability(self, dmax: int | None = None) -> np.ndarray:
        """Probability on the dense support ``1..dmax``."""
        dense = self.dense_counts(dmax)
        total = self.total
        if total == 0:
            return dense.astype(np.float64)
        return dense / total

    def fraction_at(self, d: int) -> float:
        """Fraction of observations with quantity exactly *d* (e.g. ``D(d=1)``)."""
        idx = np.searchsorted(self.degrees, d)
        if idx < self.degrees.size and self.degrees[idx] == d and self.total > 0:
            return float(self.counts[idx] / self.total)
        return 0.0

    def merge(self, other: "DegreeHistogram") -> "DegreeHistogram":
        """Combine two histograms by summing counts degree-by-degree."""
        dmax = max(self.dmax, other.dmax)
        if dmax < 1:
            return DegreeHistogram._from_dense_trusted(np.zeros(0, dtype=np.int64))
        # both degree vectors are unique, so direct fancy-index scatters are
        # exact; the result is identical to summing the dense count vectors
        dense = np.zeros(dmax, dtype=np.int64)
        dense[self.degrees - 1] = self.counts
        dense[other.degrees - 1] += other.counts
        return DegreeHistogram._from_dense_trusted(dense)

    # -- constructors ----------------------------------------------------------

    @staticmethod
    def from_dense(dense_counts: Sequence[int]) -> "DegreeHistogram":
        """Build a histogram from a dense count vector indexed by ``d-1``."""
        dense = check_integer_array(dense_counts, "dense_counts", minimum=0)
        nz = np.nonzero(dense)[0]
        return DegreeHistogram(degrees=nz + 1, counts=dense[nz])

    @classmethod
    def _from_dense_trusted(cls, dense: np.ndarray) -> "DegreeHistogram":
        """Internal fast path over :meth:`from_dense` for kernel-produced counts.

        *dense* must be a 1-D non-negative integer count vector indexed by
        ``d-1`` (exactly what :meth:`from_dense` validates); the constructor
        checks are skipped because re-validating every histogram dominated
        the fused window kernel's runtime.  Produces an instance
        attribute-identical to the validated path.
        """
        nz = np.flatnonzero(dense)
        self = object.__new__(cls)
        object.__setattr__(self, "degrees", (nz + 1).astype(np.int64, copy=False))
        object.__setattr__(self, "counts", dense[nz].astype(np.int64, copy=False))
        object.__setattr__(self, "_dense_cache", {})
        return self

    @classmethod
    def _from_unique_trusted(cls, degrees: np.ndarray, counts: np.ndarray) -> "DegreeHistogram":
        """Internal fast path for ``np.unique(..., return_counts=True)`` output.

        *degrees* must already be sorted, unique, ``>= 1`` and the same
        length as *counts* — exactly what ``np.unique`` over a positive
        integer array produces, so the sketch estimators skip the
        constructor checks the same way the fused kernel does via
        :meth:`_from_dense_trusted`.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "degrees", degrees.astype(np.int64, copy=False))
        object.__setattr__(self, "counts", counts.astype(np.int64, copy=False))
        object.__setattr__(self, "_dense_cache", {})
        return self

    @staticmethod
    def from_values(values: Sequence[int]) -> "DegreeHistogram":
        """Build a histogram from raw per-node/per-link quantity values."""
        return degree_histogram(values)


class HistogramBlock(Mapping[str, DegreeHistogram]):
    """Histograms of several named quantities, packed end to end.

    Row ``k`` (quantity ``names[k]``) is entries ``starts[k]:starts[k + 1]``
    of ``degrees`` and ``counts``: the degrees with a nonzero count, in
    increasing order.  ``dmax[k]`` is the row's largest degree (0 for an
    empty row) and ``totals[k]`` its count sum.  As a mapping it reads
    each row back as a :class:`DegreeHistogram`, built on access.  The
    window fold works on the arrays directly: :meth:`pooled` pools every
    row with one weighted ``bincount`` and caches the result, and
    :meth:`select` caches its last selection, so every consumer of one
    window that reads the same rows shares one pooling.
    """

    def __init__(
        self,
        names: Sequence[str],
        degrees: np.ndarray,
        counts: np.ndarray,
        starts: np.ndarray,
        dmax: np.ndarray,
        totals: np.ndarray,
    ) -> None:
        self.names = tuple(names)
        self.degrees = degrees
        self.counts = counts
        self.starts = starts
        self.dmax = dmax
        self.totals = totals
        self._pooled = None
        self._selected = None

    def __getstate__(self) -> dict:
        # the caches are rebuilt on demand, not shipped with the block
        return {**self.__dict__, "_pooled": None, "_selected": None}

    @classmethod
    def from_histograms(cls, histograms: Mapping[str, DegreeHistogram]) -> "HistogramBlock":
        """Pack a mapping of histograms, row per key, in the mapping's order."""
        rows = [(h.degrees[h.counts > 0], h.counts[h.counts > 0]) for h in histograms.values()]
        empty = np.zeros(0, dtype=np.int64)
        starts = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum([degrees.size for degrees, _ in rows], out=starts[1:])
        return cls(
            histograms,
            np.concatenate([empty] + [degrees for degrees, _ in rows]),
            np.concatenate([empty] + [counts for _, counts in rows]),
            starts,
            np.array([degrees[-1] if degrees.size else 0 for degrees, _ in rows], dtype=np.int64),
            np.array([counts.sum() for _, counts in rows], dtype=np.int64),
        )

    def _row(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(name) from None

    def __getitem__(self, name: str) -> DegreeHistogram:
        row = self._row(name)
        entries = slice(self.starts[row], self.starts[row + 1])
        return DegreeHistogram._from_unique_trusted(
            self.degrees[entries].copy(), self.counts[entries].copy()
        )

    def __iter__(self):
        return iter(self.names)

    def __len__(self) -> int:
        return len(self.names)

    def select(self, names: Sequence[str]) -> "HistogramBlock":
        """The block of just *names*, in that order (``self`` when unchanged)."""
        names = tuple(names)
        if names == self.names:
            return self
        if self._selected is None or self._selected.names != names:
            rows = [self._row(name) for name in names]
            bounds = self.starts.tolist()
            degrees, counts, starts = [self.degrees[:0]], [self.counts[:0]], [0]
            for row in rows:
                low, high = bounds[row], bounds[row + 1]
                degrees.append(self.degrees[low:high])
                counts.append(self.counts[low:high])
                starts.append(starts[-1] + high - low)
            self._selected = HistogramBlock(
                names,
                np.concatenate(degrees),
                np.concatenate(counts),
                np.array(starts, dtype=np.int64),
                self.dmax[rows],
                self.totals[rows],
            )
        return self._selected

    def pooled(self):
        """Every row pooled in binary-log bins (a cached ``PooledBlock``)."""
        if self._pooled is None:
            from repro.analysis.pooling import pool_block

            self._pooled = pool_block(self)
        return self._pooled


def degree_histogram(values: Sequence[int]) -> DegreeHistogram:
    """Histogram the raw quantity *values* (all must be >= 1).

    Values equal to zero are rejected: the paper's quantities (packets,
    fan-in/out, link packets) are strictly positive for observed entities;
    zero-degree nodes are by construction invisible to the observatory.
    """
    arr = check_integer_array(values, "values")
    if arr.size == 0:
        return DegreeHistogram(degrees=np.zeros(0, dtype=np.int64), counts=np.zeros(0, dtype=np.int64))
    if np.any(arr < 1):
        raise ValueError("values must be >= 1; zero-degree entities are unobservable")
    degrees, counts = np.unique(arr, return_counts=True)
    return DegreeHistogram(degrees=degrees, counts=counts)


def probability_from_counts(counts: Sequence[int]) -> np.ndarray:
    """Normalise a dense count vector into a probability vector.

    An all-zero input returns an all-zero output rather than raising, which
    lets callers treat empty windows uniformly.
    """
    arr = np.asarray(counts, dtype=np.float64)
    total = arr.sum()
    if total <= 0:
        return np.zeros_like(arr)
    return arr / total


def cumulative_probability(probability: Sequence[float]) -> np.ndarray:
    """Cumulative sum of a probability vector (``P_t(d)`` in the paper)."""
    arr = np.asarray(probability, dtype=np.float64)
    return np.cumsum(arr)
