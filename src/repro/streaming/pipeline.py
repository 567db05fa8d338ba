"""End-to-end streaming analysis pipeline.

``trace → N_V windows → A_t → Figure-1 quantities → histograms → pooled
differential cumulative distributions → (optional) model fits``

:func:`analyze_trace` is the one call behind the Figure-3 reproduction.  It
is built as a single-pass engine: windows flow through a pluggable
:class:`~repro.streaming.parallel.ExecutionBackend` into a
:class:`StreamAnalyzer`, which folds each :class:`WindowResult` into running
pooled aggregates (mean ``D(d_i)`` and ``σ(d_i)`` via
:class:`repro.analysis.moments.StreamingMoments`) and incrementally merged
histograms.  Because the fold happens in window order on every backend, the
serial and process backends produce bit-identical pooled distributions;
because the fold state is O(bins) per quantity (plus a few-integer Table-I
row per window), every backend can analyse an on-disk trace far larger than
memory (``analyze_trace(path, ..., keep_windows=False)``).
:class:`StreamAnalyzer` is the only fold: a :class:`WindowedAnalysis` built
by hand from window results folds them through it at construction.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import itertools
import os
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro._util.logging import get_logger
from repro._util.validation import check_positive_int
from repro.analysis.histogram import DegreeHistogram, HistogramBlock
from repro.analysis.moments import StackedMoments
from repro.analysis.pooling import (
    PooledBlock,
    PooledDistribution,
    log2_bin_edges,
    pool_differential_cumulative,
)
from repro.core.zm_fit import ZMFitResult, fit_zipf_mandelbrot
import repro.streaming.kernel as _kernel
import repro.streaming.shm as _shm
from repro.streaming.aggregates import QUANTITY_NAMES, AggregateProperties, compute_aggregates, quantity_histograms
from repro.streaming.packet import PacketTrace
from repro.streaming.parallel import (
    ExecutionBackend,
    ProcessBackend,
    get_backend,
)
from repro.streaming.sketch import (
    DEFAULT_SKETCH_CONFIG,
    SketchBounds,
    SketchConfig,
    WindowSketch,
    sketch_products,
)
from repro.streaming.trace_io import ANALYSIS_COLUMNS, iter_trace_chunks, rechunk
from repro.streaming.window import PushWindower, iter_batches

__all__ = [
    "MODE_NAMES",
    "WindowResult",
    "WindowedAnalysis",
    "StreamAnalyzer",
    "analyze_window",
    "analyze_window_image",
    "analyze_window_sketch",
    "analyze_trace",
    "backend_stats",
    "fold_windows",
    "iter_window_results",
]

#: Per-window analysis modes: the exact fused kernel, or the sub-linear
#: Count-Min/HyperLogLog sketch tier (:mod:`repro.streaming.sketch`).
MODE_NAMES = ("exact", "sketch")


def _resolve_sketch_config(mode: str, sketch: "SketchConfig | None") -> "SketchConfig | None":
    """Validate *mode* and pin the sketch configuration it implies.

    Returns ``None`` for exact mode (rejecting a stray sketch config, which
    would otherwise be silently ignored) and a concrete
    :class:`~repro.streaming.sketch.SketchConfig` for sketch mode.
    """
    if mode not in MODE_NAMES:
        raise ValueError(f"unknown mode {mode!r}; valid modes: {MODE_NAMES}")
    if mode == "exact":
        if sketch is not None:
            raise ValueError("a sketch config was supplied but mode is 'exact'")
        return None
    return sketch if sketch is not None else DEFAULT_SKETCH_CONFIG

_logger = get_logger("streaming.pipeline")

_NO_WINDOWS_MESSAGE = "no complete windows to analyse; lower n_valid or provide a longer trace"


@dataclass(frozen=True)
class WindowResult:
    """Per-window analysis products.

    ``bounds`` and ``sketch`` are populated only on sketch-mode results:
    the per-quantity error guarantees of the estimates, and the mergeable
    :class:`~repro.streaming.sketch.WindowSketch` the streaming fold
    combines across windows.  Exact-kernel results leave both ``None``.
    """

    aggregates: AggregateProperties
    histograms: Mapping[str, DegreeHistogram]
    bounds: Mapping[str, SketchBounds] | None = None
    sketch: WindowSketch | None = None

    def __post_init__(self) -> None:
        # the fold reads one packed block per window; any other mapping of
        # histograms (the oracle's, the sketch tier's, a hand-built one) is
        # packed once here
        if not isinstance(self.histograms, HistogramBlock):
            object.__setattr__(self, "histograms", HistogramBlock.from_histograms(self.histograms))

    def pooled(self, quantity: str) -> PooledDistribution:
        """Pooled differential cumulative distribution of one quantity."""
        return pool_differential_cumulative(self.histograms[quantity])


@dataclass(frozen=True)
class _StreamState:
    """Products folded by :class:`StreamAnalyzer` during a single pass.

    Every :class:`WindowedAnalysis` reads its cross-window products from
    one, so they are available even when the per-window results were not
    retained (bounded-memory runs).
    """

    n_windows: int
    pooled: Mapping[str, PooledDistribution]
    merged: Mapping[str, DegreeHistogram]
    aggregate_rows: Sequence[AggregateProperties]
    stats: Mapping[str, object]
    #: sketch-mode extras: the cross-window merged sketch and the error
    #: bounds of its estimates (``None`` on exact-mode analyses)
    sketch: WindowSketch | None = None
    bounds: Mapping[str, SketchBounds] | None = None


@dataclass(frozen=True, eq=False)
class WindowedAnalysis:
    """Aggregated analysis of all windows of one trace.

    The engine builds these through :meth:`StreamAnalyzer.result`.  One
    built by hand, ``WindowedAnalysis(n_valid, windows, quantities)``,
    folds its window results through a :class:`StreamAnalyzer` once at
    construction, so it compares equal to the engine's analysis of the
    same windows.

    Attributes
    ----------
    n_valid:
        The window size ``N_V`` used.
    windows:
        Per-window results, in stream order.  Empty when the analysis was
        produced with ``keep_windows=False`` (bounded memory); the
        cross-window products below remain available either way.
    quantities:
        The quantity names analysed (a subset of
        :data:`repro.streaming.aggregates.QUANTITY_NAMES`).
    """

    n_valid: int
    windows: Sequence[WindowResult]
    quantities: Sequence[str]
    _stream: _StreamState | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self._stream is None:
            analyzer = StreamAnalyzer(self.n_valid, self.quantities)
            for result in self.windows:
                analyzer.update(result)
            object.__setattr__(self, "_stream", analyzer._state(stats={}))

    def __eq__(self, other: object) -> bool:
        # field-wise dataclass equality would compare streamed analyses
        # (windows=()) solely by n_valid/quantities; compare the actual
        # analysis products instead — including σ, which is part of the
        # cross-backend bit-identity guarantee
        if not isinstance(other, WindowedAnalysis):
            return NotImplemented
        if (
            self.n_valid != other.n_valid
            or tuple(self.quantities) != tuple(other.quantities)
            or self.n_windows != other.n_windows
        ):
            return False

        def same_optional(a, b) -> bool:
            if a is None or b is None:
                return (a is None) == (b is None)
            return bool(np.array_equal(a, b))

        for q in self.quantities:
            mine, theirs = self.pooled(q), other.pooled(q)
            if not (
                np.array_equal(mine.bin_edges, theirs.bin_edges)
                and np.array_equal(mine.values, theirs.values)
                and same_optional(mine.sigma, theirs.sigma)
                and mine.total == theirs.total
            ):
                return False
        return self.aggregates_table() == other.aggregates_table()

    def __hash__(self) -> int:
        # coarse but consistent with __eq__ (equal analyses share these keys)
        return hash((self.n_valid, tuple(self.quantities), self.n_windows))

    @property
    def n_windows(self) -> int:
        """Number of complete windows analysed."""
        return self._stream.n_windows

    @property
    def engine_stats(self) -> Mapping[str, object]:
        """Execution statistics recorded by the single-pass engine.

        Keys (when produced by :func:`analyze_trace`): ``backend``, ``mode``,
        ``max_buffered_packets`` and ``n_chunks`` for every input kind, plus
        ``payload_transport`` on the process backend.  Empty for analyses
        built directly from window results.
        """
        return dict(self._stream.stats)

    @property
    def mode(self) -> str:
        """Which per-window analysis produced this: ``"exact"`` or ``"sketch"``."""
        return str(self._stream.stats.get("mode", "exact"))

    @property
    def sketch(self) -> WindowSketch | None:
        """The cross-window merged sketch (sketch-mode analyses only)."""
        return self._stream.sketch

    @property
    def bounds(self) -> Mapping[str, SketchBounds] | None:
        """Per-quantity error bounds of the estimates (sketch mode only).

        Keyed by quantity name plus the Table-I aggregate names; ``None``
        on exact analyses, whose products carry no estimation error.
        """
        return dict(self._stream.bounds) if self._stream.bounds is not None else None

    def _check_quantity(self, quantity: str) -> None:
        if quantity not in self.quantities:
            raise KeyError(f"quantity {quantity!r} was not analysed; available: {list(self.quantities)}")

    def pooled(self, quantity: str) -> PooledDistribution:
        """Cross-window mean-and-σ pooled distribution of one quantity (Fig. 3 data).

        The in-order Welford fold of :class:`StreamAnalyzer`.  It agrees
        with the stacked two-pass :func:`repro.analysis.pooling.aggregate_pooled`
        only to floating-point tolerance, not bitwise — they are different
        computations of the same moments.
        """
        self._check_quantity(quantity)
        return self._stream.pooled[quantity]

    def merged_histogram(self, quantity: str) -> DegreeHistogram:
        """Counts of one quantity summed over every window."""
        self._check_quantity(quantity)
        return self._stream.merged[quantity]

    def dmax(self, quantity: str) -> int:
        """Largest observed value of one quantity across all windows."""
        return self.merged_histogram(quantity).dmax

    def fit_zipf_mandelbrot(self, quantity: str, **kwargs) -> ZMFitResult:
        """Fit the modified Zipf–Mandelbrot model to one quantity (Fig. 3 black line)."""
        pooled = self.pooled(quantity)
        return fit_zipf_mandelbrot(pooled, dmax=self.dmax(quantity), **kwargs)

    def aggregates_table(self) -> list:
        """Per-window Table-I aggregates, one dict row per window."""
        return [aggregates.as_row() for aggregates in self._stream.aggregate_rows]


class StreamAnalyzer:
    """Incremental consumer folding window results into running aggregates.

    Feed :class:`WindowResult`\\ s in stream order via :meth:`update`; the
    analyzer maintains, per quantity, a running pooled mean/σ
    (:class:`~repro.analysis.moments.StreamingMoments` over the per-window
    pooled vectors) and an incrementally merged histogram, plus (by default)
    the Table-I aggregates row per window.  The distribution fold state is
    O(bins) — independent of the number of windows — so arbitrarily long
    traces can be analysed in a single pass without retaining per-window
    products (``keep_windows=False``, the default); the aggregates table is
    the one O(windows) product kept, a few integers per window.

    The fold is order-sensitive in floating point; every execution backend
    yields results in window order, which makes the resulting pooled
    distributions bit-identical across backends.
    """

    def __init__(
        self,
        n_valid: int,
        quantities: Sequence[str] = QUANTITY_NAMES,
        *,
        keep_windows: bool = False,
        mode: str = "exact",
        sketch: SketchConfig | None = None,
    ) -> None:
        self.n_valid = check_positive_int(n_valid, "n_valid")
        unknown = set(quantities) - set(QUANTITY_NAMES)
        if unknown:
            raise ValueError(f"unknown quantities {sorted(unknown)}; valid names: {QUANTITY_NAMES}")
        self.quantities = tuple(quantities)
        if len(set(self.quantities)) != len(self.quantities):
            raise ValueError(f"duplicate quantities in {list(self.quantities)}")
        self.sketch_config = _resolve_sketch_config(mode, sketch)
        self.mode = mode
        self._row = {q: k for k, q in enumerate(self.quantities)}
        # one stacked Welford state, a row per quantity, wide enough for any
        # exact window (no quantity of N_V valid packets exceeds N_V)
        self._moments = StackedMoments(len(self.quantities), log2_bin_edges(self.n_valid).size)
        self._totals = np.zeros(len(self.quantities), dtype=np.int64)
        # merged histograms are one int64 count buffer, each quantity's
        # dense counts over 1..dmax end to end (_set_merged): one
        # scatter-add of the packed block per window — integer sums, so the
        # final histograms are identical to chained DegreeHistogram.merge
        # calls.  In sketch mode the buffer stays empty and a single merged
        # WindowSketch (Count-Min add / HyperLogLog max / bitmap or —
        # associative, so the fold is invariant to how the window stream
        # was chunked) serves the merged histograms on demand.
        self._set_merged([np.zeros(0, dtype=np.int64)] * len(self.quantities))
        self._merged_sketch: WindowSketch | None = None
        self._aggregates: list[AggregateProperties] = []
        self._windows: list[WindowResult] | None = [] if keep_windows else None
        self._n_windows = 0

    @property
    def n_windows(self) -> int:
        """Number of window results folded in so far."""
        return self._n_windows

    def update(self, result: WindowResult, *, pooled: PooledBlock | None = None) -> None:
        """Fold one window result into the running aggregates.

        *pooled* optionally supplies this window's pooled vectors as the
        process backend's workers ship them
        (``result.histograms.select(quantities).pooled()``); without it
        the window's selected rows pool themselves once and cache the
        result, so a second consumer of the same result stream — e.g. the
        scenario runner's phase segmenter — shares the pooling work instead
        of repeating it.
        """
        self._n_windows += 1
        self._aggregates.append(result.aggregates)
        block = result.histograms.select(self.quantities)
        if pooled is None:
            pooled = block.pooled()
        window_pooled = pooled.select(self.quantities)
        self._moments.update(window_pooled.values, window_pooled.n_bins)
        self._totals += window_pooled.totals
        if self.sketch_config is None:
            self._merge(block)
        else:
            if result.sketch is None:
                raise ValueError(
                    "sketch-mode StreamAnalyzer was fed a window result without a "
                    "sketch; produce results via analyze_window_sketch / mode='sketch'"
                )
            if result.sketch.config != self.sketch_config:
                raise ValueError("window sketch was built under a different SketchConfig")
            if self._merged_sketch is None:
                self._merged_sketch = result.sketch.copy()
            else:
                self._merged_sketch.merge_into(result.sketch)
        if self._windows is not None:
            self._windows.append(result)

    def _set_merged(self, rows: Sequence[np.ndarray]) -> None:
        """Lay the merged dense count rows, one per quantity, end to end."""
        self._merged_len = np.array([row.size for row in rows], dtype=np.int64)
        self._merged_base = np.cumsum(self._merged_len) - self._merged_len
        self._merged = np.concatenate([np.zeros(0, dtype=np.int64), *rows])

    def _merged_row(self, row: int) -> np.ndarray:
        """The merged dense counts of one quantity (a view)."""
        start = self._merged_base[row]
        return self._merged[start : start + self._merged_len[row]]

    def _merge(self, block: HistogramBlock) -> None:
        """Add one packed window block into the merged count buffer."""
        if (block.dmax > self._merged_len).any():
            grow = block.dmax - self._merged_len
            self._set_merged([
                np.concatenate([self._merged_row(row), np.zeros(max(extra, 0), dtype=np.int64)])
                for row, extra in enumerate(grow.tolist())
            ])
        # degree d of row k sits at base[k] + d - 1; the indices are
        # distinct, so the fancy scatter-add is exact
        index = np.repeat(self._merged_base - 1, block.starts[1:] - block.starts[:-1])
        index += block.degrees
        self._merged[index] += block.counts

    def pooled(self, quantity: str) -> PooledDistribution:
        """Current cross-window pooled distribution of one quantity."""
        row = self._row[quantity]
        return PooledDistribution(
            bin_edges=2 ** np.arange(self._moments.widths[row], dtype=np.int64),
            values=self._moments.mean(row),
            sigma=self._moments.std(row),
            total=int(self._totals[row]),
        )

    def merged_histogram(self, quantity: str) -> DegreeHistogram:
        """Current counts of one quantity summed over the folded windows.

        In sketch mode this is estimated from the merged sketch — sharper
        than merging the per-window estimates, because bucket sums combine
        before the histogram is read off.
        """
        if self.sketch_config is not None:
            if self._merged_sketch is None:
                return DegreeHistogram._from_dense_trusted(np.zeros(0, dtype=np.int64))
            return self._merged_sketch.histograms()[quantity]
        return DegreeHistogram._from_dense_trusted(self._merged_row(self._row[quantity]))

    def snapshot(self) -> dict:
        """Exact fold state for service checkpoints.

        Captures the raw Welford accumulators, totals, merged dense buffers
        (or the merged sketch), the aggregates table, and the window count —
        everything :meth:`update` mutates — as copies, so restoring and
        continuing the fold is bit-identical to never having stopped.  The
        stacked state is written per quantity (``moments``, ``totals`` and
        ``merged_dense`` keyed by quantity name).
        Raises on ``keep_windows`` analyzers: per-window results are
        unbounded state the checkpoint layer deliberately does not persist
        (the service always folds with ``keep_windows=False``).
        """
        if self._windows is not None:
            raise ValueError("keep_windows analyzers cannot snapshot; per-window results are not checkpointed")
        rows = self._row.items()
        return {
            "n_valid": int(self.n_valid),
            "quantities": tuple(self.quantities),
            "mode": self.mode,
            "n_windows": int(self._n_windows),
            "moments": {q: self._moments.state(k) for q, k in rows},
            "totals": {q: int(self._totals[k]) for q, k in rows},
            "merged_dense": (
                {} if self.sketch_config is not None
                else {q: self._merged_row(k).copy() for q, k in rows}
            ),
            "merged_sketch": self._merged_sketch.copy() if self._merged_sketch is not None else None,
            "aggregates": tuple(self._aggregates),
        }

    def restore(self, state: Mapping[str, object]) -> None:
        """Replace the fold state with a :meth:`snapshot` payload.

        The analyzer must have been constructed with the same ``n_valid``,
        ``quantities``, and ``mode`` as the one that was snapshotted.
        """
        if self._windows is not None:
            raise ValueError("keep_windows analyzers cannot restore from a snapshot")
        if int(state["n_valid"]) != self.n_valid:
            raise ValueError("snapshot n_valid does not match this analyzer")
        if tuple(state["quantities"]) != self.quantities:
            raise ValueError("snapshot quantities do not match this analyzer")
        if state["mode"] != self.mode:
            raise ValueError("snapshot mode does not match this analyzer")
        self._n_windows = int(state["n_windows"])
        self._moments = StackedMoments.from_states([state["moments"][q] for q in self.quantities])
        self._totals = np.array([int(state["totals"][q]) for q in self.quantities], dtype=np.int64)
        if self.sketch_config is not None:
            sketch = state["merged_sketch"]
            if sketch is not None and sketch.config != self.sketch_config:
                raise ValueError("snapshot sketch was built under a different SketchConfig")
            self._merged_sketch = sketch.copy() if sketch is not None else None
            dense = [np.zeros(0, dtype=np.int64)] * len(self.quantities)
        else:
            dense = [np.asarray(state["merged_dense"][q], dtype=np.int64) for q in self.quantities]
            self._merged_sketch = None
        self._set_merged(dense)
        self._aggregates = list(state["aggregates"])

    def _state(self, *, stats: Mapping[str, object]) -> _StreamState:
        """The folded products as one immutable record (raises if no windows)."""
        if self.n_windows == 0:
            raise ValueError(_NO_WINDOWS_MESSAGE)
        if self._merged_sketch is not None:
            merged_estimates = self._merged_sketch.histograms()
            merged = {q: merged_estimates[q] for q in self.quantities}
        else:
            merged = {q: self.merged_histogram(q) for q in self.quantities}
        return _StreamState(
            n_windows=self.n_windows,
            pooled={q: self.pooled(q) for q in self.quantities},
            merged=merged,
            aggregate_rows=tuple(self._aggregates),
            stats=dict(stats),
            sketch=self._merged_sketch,
            bounds=self._merged_sketch.bounds() if self._merged_sketch is not None else None,
        )

    def result(self, *, stats: Mapping[str, object] | None = None) -> WindowedAnalysis:
        """Finalize into a :class:`WindowedAnalysis` (raises if no windows)."""
        run_stats = dict(stats or {})
        run_stats.setdefault("mode", self.mode)
        return WindowedAnalysis(
            n_valid=self.n_valid,
            windows=tuple(self._windows) if self._windows is not None else (),
            quantities=self.quantities,
            _stream=self._state(stats=run_stats),
        )


def analyze_window(window: PacketTrace) -> WindowResult:
    """Analyse a single window via the fused sort-based kernel.

    Computes the Table-I aggregates and all five Figure-1 histograms in one
    sorted pass over packed ``(src << 32) | dst`` keys
    (:func:`repro.streaming.kernel.fused_products`) — the sparse ``A_t``
    matrix is no longer built here.  Windows whose endpoint ids exceed the
    packable range fall back to the matrix route transparently; results are
    byte-identical either way (see :func:`analyze_window_image`).
    """
    aggregates, histograms = _kernel.window_products(window)
    return WindowResult(aggregates=aggregates, histograms=histograms)


def analyze_window_image(window: PacketTrace) -> WindowResult:
    """Analyse a single window through the sparse ``A_t`` matrix (the oracle).

    The pre-kernel implementation, kept as an independently-coded
    cross-check: ``tests/test_streaming_kernel.py`` pins
    ``analyze_window(w) == analyze_window_image(w)`` exactly.  Use it when
    you want the :class:`~repro.streaming.sparse_image.TrafficImage`
    compatibility view of the computation.
    """
    from repro.streaming.sparse_image import traffic_image

    image = traffic_image(window)
    return WindowResult(
        aggregates=compute_aggregates(image),
        histograms=quantity_histograms(image),
    )


def analyze_window_sketch(
    window: PacketTrace, config: SketchConfig = DEFAULT_SKETCH_CONFIG
) -> WindowResult:
    """Analyse a single window via the sub-linear sketch tier.

    Drop-in sibling of :func:`analyze_window`: same valid-packet columns
    in, same :class:`WindowResult` shape out — but the aggregates and
    histograms are Count-Min/HyperLogLog *estimates* whose guarantees are
    recorded on ``result.bounds``, and ``result.sketch`` carries the
    mergeable summary so a streaming fold combines windows in O(sketch)
    memory.  Runtime is data-independent; the exact kernel remains the
    oracle (``tests/test_sketch_oracle.py``).
    """
    src, dst = _kernel.valid_columns(window)
    aggregates, histograms, bounds, sketch = sketch_products(src, dst, config)
    return WindowResult(
        aggregates=aggregates, histograms=histograms, bounds=bounds, sketch=sketch
    )


#: Result pair moved through the engine: the window's products plus its
#: pooled vectors when a worker already computed them (the process backend
#: pools in the worker; other paths pool at fold time, so the second
#: element is ``None``).
_ResultPair = Tuple[WindowResult, Optional[PooledBlock]]

#: Windows packed into one process-backend task.  With at most
#: ``2 × n_workers`` tasks in flight, the engine reads at most
#: ``(2 × n_workers + 1) × BATCH_WINDOWS`` windows ahead of the fold.
#: Batching only changes how results move, never what they are.
BATCH_WINDOWS = 4


def _analyze_batch(
    batch: Tuple[Union[_kernel.WindowPayload, "_shm.ShmWindowRef"], ...],
    quantities: Sequence[str] = QUANTITY_NAMES,
    config: SketchConfig | None = None,
) -> Tuple[_ResultPair, ...]:
    """The process backend's one worker task.

    Analyses a batch of window payloads — column arrays, or
    :class:`~repro.streaming.shm.ShmWindowRef` records resolved to views of
    a published shared-memory segment — with the exact kernel, or with the
    sketch tier when *config* is given.  The requested *quantities* are
    pooled while still in the worker, so the parent's fold is a pure
    accumulate.  Everything returned is a fresh array, so nothing aliases a
    segment once the task ends.
    """
    pairs = []
    with _shm.attached_payloads() as resolve:
        for item in batch:
            payload = resolve(item) if isinstance(item, _shm.ShmWindowRef) else item
            if config is None:
                result = WindowResult(*_kernel.payload_products(payload))
            else:
                result = WindowResult(*sketch_products(*_kernel.payload_columns(payload), config))
            pairs.append((result, result.histograms.select(quantities).pooled()))
    return tuple(pairs)


def _process_results(
    backend_impl: ProcessBackend,
    windows: Iterator[PacketTrace],
    window_task,
    quantities: Sequence[str],
    sketch_config: SketchConfig | None,
) -> Iterator[_ResultPair]:
    """The process backend's side of :func:`iter_window_results`.

    Windows are packed (:func:`repro.streaming.kernel.window_payload`) as
    they stream past, :data:`BATCH_WINDOWS` to a task.  Under the ``"shm"``
    transport each batch is published to its own segment, closed once that
    batch's results have been yielded — or when the fold fails or is
    abandoned.
    """
    head = list(itertools.islice(windows, 2))
    if backend_impl.n_workers == 1 or len(head) < 2:
        # nothing to parallelise: stay in-process, identical to the serial
        # path (the backend's map makes and logs the downgrade decision)
        _logger.debug("process backend cannot occupy two workers; analysing in-process")
        for result in backend_impl.map(window_task, itertools.chain(head, windows)):
            yield result, None
        return
    payloads = (_kernel.window_payload(w) for w in itertools.chain(head, windows))
    batches = iter_batches(payloads, BATCH_WINDOWS)
    published: collections.deque = collections.deque()
    if backend_impl.payload_transport == "shm":

        def publish(batches):
            for payload_batch in batches:
                handle = _shm.publish_payloads(payload_batch)
                published.append(handle)
                yield handle.refs

        batches = publish(batches)
    task = functools.partial(_analyze_batch, quantities=tuple(quantities), config=sketch_config)
    try:
        for pairs in backend_impl.map(task, batches):
            yield from pairs
            if published:
                published.popleft().close()
    finally:
        while published:
            published.popleft().close()


def iter_window_results(
    backend_impl: ExecutionBackend,
    windows: Iterable[PacketTrace],
    *,
    quantities: Sequence[str] = QUANTITY_NAMES,
    sketch: SketchConfig | None = None,
) -> Iterator[_ResultPair]:
    """Map windows through a backend, yielding ``(result, pooled)`` in order.

    * **process** — windows are packed into raw-column payloads and shipped
      in batches of :data:`BATCH_WINDOWS`, one batch per task; workers
      return results *and* the pooled vectors of *quantities*.  The window
      stream is consumed lazily, so the engine holds at most
      ``(2 × n_workers + 1) × BATCH_WINDOWS`` windows at once.  How
      the column bytes reach the workers is the backend's
      ``payload_transport``: ``"shm"`` (the default where supported)
      publishes each batch into a shared-memory segment
      (:mod:`repro.streaming.shm`) and ships only references, ``"pickle"``
      ships the bytes through each task — bit-identical results either
      way.  With a single worker, or a stream of at most one window, the
      map stays in-process (identical code, no payload round-trip).
    * **serial / custom** — the plain in-order map, one window at a time.

    Every strategy yields results in window order, so the downstream fold —
    and therefore the pooled output — is bit-identical across all of them.
    A *sketch* config selects the sketch-tier per-window analysis (the
    resolved :attr:`StreamAnalyzer.sketch_config`; ``None`` is the exact
    kernel); sketched results are likewise bit-identical among themselves
    across backends and batch sizes.
    """
    if sketch is not None:
        window_task = functools.partial(analyze_window_sketch, config=sketch)
    else:
        window_task = analyze_window
    if isinstance(backend_impl, ProcessBackend):
        yield from _process_results(backend_impl, iter(windows), window_task, quantities, sketch)
        return
    for result in backend_impl.map(window_task, windows):
        yield result, None


def fold_windows(
    backend_impl: ExecutionBackend,
    windows: Iterable[PacketTrace],
    folder,
    *,
    consumers: Sequence = (),
) -> int:
    """THE window-fold loop: map windows through a backend into *folder*.

    This is the one code path every execution surface drives — one-shot
    :func:`analyze_trace`, :func:`repro.scenarios.run.analyze_scenario`
    (and therefore every campaign worker cell), and the resident
    ``repro serve`` daemon (:mod:`repro.service.engine`) all fold through
    this exact loop, which is what makes their pooled outputs and alarm
    sequences bit-identical over the same window stream.

    Parameters
    ----------
    backend_impl:
        The execution backend mapping windows to results.
    windows:
        The in-order window stream (any iterable of :class:`PacketTrace`).
    folder:
        The primary fold target — a
        :class:`StreamAnalyzer`-shaped consumer (``update(result, pooled=)``
        / ``quantities`` / ``sketch_config``), e.g. a :class:`StreamAnalyzer`
        or a :class:`~repro.detect.analyzer.DetectingAnalyzer` wrapping one.
        Its ``sketch_config`` picks the per-window analysis tier.
    consumers:
        Additional same-shaped consumers riding the identical in-order
        result stream (e.g. the scenario runner's phase segmenter).  Each
        window is pooled exactly once and the vectors are shared, instead of
        every consumer re-pooling.

    Returns
    -------
    int
        Number of windows folded by this call.
    """
    pairs = iter_window_results(
        backend_impl, windows, quantities=tuple(folder.quantities), sketch=folder.sketch_config
    )
    n_folded = 0
    # closing releases the map's resources (shared-memory segments, the pool
    # claim) as soon as the fold ends, even when a consumer raised
    with contextlib.closing(pairs):
        for result, pooled in pairs:
            # a window pools once: the worker's vectors, or the first
            # consumer's pooling cached on the result's histogram block
            folder.update(result, pooled=pooled)
            for consumer in consumers:
                consumer.update(result, pooled=pooled)
            n_folded += 1
    return n_folded


def backend_stats(backend_impl: ExecutionBackend) -> dict:
    """Base ``engine_stats`` of one run: backend name plus its transport.

    The one rule every engine entry point (:func:`analyze_trace`,
    :func:`repro.scenarios.run.analyze_scenario`) starts its stats from, so
    their keys cannot drift apart.
    """
    stats: dict[str, object] = {"backend": backend_impl.name}
    if isinstance(backend_impl, ProcessBackend):
        stats["payload_transport"] = backend_impl.payload_transport
    return stats


def analyze_trace(
    trace: Union[PacketTrace, str, os.PathLike, Iterable[PacketTrace]],
    n_valid: int,
    *,
    quantities: Sequence[str] = QUANTITY_NAMES,
    n_workers: int | None = None,
    backend: Union[str, ExecutionBackend, None] = None,
    chunk_packets: int | None = None,
    keep_windows: bool = True,
    mode: str = "exact",
    sketch: SketchConfig | None = None,
    payload_transport: str | None = None,
) -> WindowedAnalysis:
    """Window a trace and analyse every complete ``N_V`` window in one pass.

    Parameters
    ----------
    trace:
        The packet trace to analyse: an in-memory :class:`PacketTrace`, the
        path of a stored trace (v1 ``.npz`` or v2 sharded directory — the
        latter is read shard-by-shard, never whole; ``npy`` shards are
        memory-mapped), or an iterator of trace chunks.  Every kind is cut
        into windows by one :class:`~repro.streaming.window.PushWindower`.
    n_valid:
        Window size ``N_V`` in valid packets.
    quantities:
        Which Figure-1 quantities to histogram (all five by default).
    n_workers:
        Worker processes for the per-window analysis.  Unset (``None``)
        means serial, or an automatic worker count under
        ``backend="process"``; an explicit value is honoured exactly.
    backend:
        Execution backend: ``"serial"``, ``"process"``, an
        :class:`~repro.streaming.parallel.ExecutionBackend` instance, or
        ``None`` to derive serial/process from *n_workers* as before.  All
        backends produce bit-identical pooled distributions.
    chunk_packets:
        Read/cut the trace in chunks of this many packets, bounding the
        windower's buffer by the chunk size (plus one window) instead of
        the trace length.  Unset, a stored trace is cut shard by shard,
        an in-memory trace as one chunk and a chunk stream as given.
    keep_windows:
        Retain per-window :class:`WindowResult`\\ s on the returned analysis.
        Pass ``False`` for a bounded-memory pass: the cross-window products
        are folded either way.
    mode:
        Per-window analysis tier: ``"exact"`` (the fused kernel, default)
        or ``"sketch"`` (the sub-linear Count-Min/HyperLogLog tier of
        :mod:`repro.streaming.sketch` — estimated products with error
        bounds on ``result.bounds``, O(sketch) fold memory, and
        data-independent per-packet cost).
    sketch:
        Accuracy knobs for sketch mode
        (:class:`~repro.streaming.sketch.SketchConfig`); ``None`` uses
        :data:`~repro.streaming.sketch.DEFAULT_SKETCH_CONFIG`.  Rejected
        in exact mode.
    payload_transport:
        How the process backend ships window columns to its workers:
        ``"shm"`` (shared-memory segments, the default where supported) or
        ``"pickle"`` (bytes through each task).  Results are bit-identical
        either way; only valid when this call builds the backend (pass it
        to the :class:`~repro.streaming.parallel.ProcessBackend`
        constructor when supplying an instance).

    Returns
    -------
    WindowedAnalysis
    """
    n_valid = check_positive_int(n_valid, "n_valid")
    if chunk_packets is not None:
        chunk_packets = check_positive_int(chunk_packets, "chunk_packets")
    backend_impl = get_backend(backend, n_workers=n_workers, payload_transport=payload_transport)

    if isinstance(trace, (str, os.PathLike)):
        # the analysis never reads time/size, so skip decoding those columns
        chunks = iter_trace_chunks(trace, chunk_packets, columns=ANALYSIS_COLUMNS)
    elif isinstance(trace, PacketTrace):
        chunks = [trace] if chunk_packets is None else trace.iter_chunks(chunk_packets)
    elif isinstance(trace, Iterable):
        # re-cut the caller's chunks so chunk_packets bounds the buffer here too
        chunks = trace if chunk_packets is None else rechunk(trace, chunk_packets)
    else:
        raise TypeError(
            f"trace must be a PacketTrace, a stored-trace path, or an iterable of chunks, "
            f"got {type(trace).__name__}"
        )

    _logger.debug("analysing windows of %d valid packets via %s backend", n_valid, backend_impl.name)
    analyzer = StreamAnalyzer(
        n_valid, quantities, keep_windows=keep_windows, mode=mode, sketch=sketch
    )
    windower = PushWindower(n_valid)
    fold_windows(backend_impl, (w for chunk in chunks for w in windower.push(chunk)), analyzer)
    stats = backend_stats(backend_impl)
    # read after the fold so the high-water mark covers the whole pass
    stats["max_buffered_packets"] = windower.max_buffered_packets
    stats["n_chunks"] = windower.n_chunks
    return analyzer.result(stats=stats)
