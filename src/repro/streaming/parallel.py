"""Pluggable execution backends for the window-analysis map.

The paper's measurements were produced on an interactive supercomputer with
sparse-matrix parallelism; the laptop-scale equivalent here is a small
family of execution strategies behind one :class:`ExecutionBackend`
protocol.  Windows are independent by construction (each aggregates a
disjoint slice of packets), so the map is embarrassingly parallel and the
substrate can be swapped beneath a stable analysis API:

* :class:`SerialBackend` — in-process, lazy, deterministic; the default and
  the debugging baseline.
* :class:`ProcessBackend` — a warm, process-wide ``multiprocessing`` pool
  fed lazily: the input is consumed only as results are, with at most
  ``2 × n_workers`` tasks in flight, so a map over an unbounded stream stays
  bounded in memory.  Items are whatever the caller maps — the single-pass
  engine maps *batches* of window payloads, so one task carries several
  windows.  The pool outlives individual maps (:func:`shared_pool`), so
  repeated analyses stop paying worker start-up.

Both yield results **in input order**, which is what lets the
incremental consumer (:class:`repro.streaming.pipeline.StreamAnalyzer`) fold
them into bit-identical pooled aggregates regardless of backend.  Bounded
memory is not a backend property: it comes from the chunked trace reads
every engine run uses and from ``keep_windows=False``.  Nothing here
analyses windows itself: every analysis maps through a backend inside
:func:`repro.streaming.pipeline.fold_windows`.
"""

from __future__ import annotations

import atexit
import collections
import itertools
import multiprocessing
import os
import threading
from typing import Callable, Iterable, Iterator, Protocol, TypeVar, Union, runtime_checkable

from repro._util.logging import get_logger
from repro._util.validation import check_positive_int

__all__ = [
    "ExecutionBackend",
    "SerialBackend",
    "ProcessBackend",
    "BACKEND_NAMES",
    "get_backend",
    "usable_cpu_count",
    "default_worker_count",
    "shared_pool",
    "shutdown_shared_pools",
]

_T = TypeVar("_T")
_R = TypeVar("_R")
_logger = get_logger("streaming.parallel")

#: Names accepted by :func:`get_backend` (and the CLI ``--backend`` flag).
BACKEND_NAMES = ("serial", "process")


def usable_cpu_count() -> int:
    """CPUs this process may actually run on.

    Respects the scheduler affinity mask (container / cgroup CPU limits)
    where the platform exposes it, falling back to the raw CPU count.  This
    is the honest parallelism budget: spawning workers beyond it turns the
    process backend into pure overhead.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux platforms
        return os.cpu_count() or 1


def default_worker_count() -> int:
    """A sensible worker count: usable CPUs minus a *scaled* reserve, at most 16.

    The reserve of two CPUs (head-room for the parent process and the OS)
    is scaled to the machine: it only applies in full once at least four
    CPUs are usable.  A flat ``cpus - 2`` silently downgraded 2–3-CPU boxes
    to one worker — and therefore to serial execution — even though
    parallel hardware existed; now 2 and 3 usable CPUs yield 2 workers
    (reserve 0 and 1 respectively), and only a true 1-CPU budget degrades
    to 1, which :meth:`ProcessBackend.map` treats as serial in-process
    execution — the right call when there is no parallel hardware to occupy.
    """
    cpus = usable_cpu_count()
    scaled_reserve = min(2, max(0, cpus - 2))
    return max(1, min(cpus - scaled_reserve, 16))


# -- warm shared pools --------------------------------------------------------

_POOLS: dict = {}
_POOLS_LOCK = threading.Lock()
_POOLS_ATEXIT_REGISTERED = False


def _start_method() -> str:
    # prefer fork where available: it avoids re-importing the scientific
    # stack in every worker, which dominates for second-scale workloads
    return "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"


class _PoolEntry:
    """One cached pool generation plus its in-flight map bookkeeping.

    The entry *is* the generation tag: a failed map retires its entry (so
    new maps start a fresh pool) but the pool itself is only terminated once
    the last in-flight map checks in.  Without this, one failed map would
    terminate a pool that a concurrent map — a daemon job and a campaign
    worker sharing the process, or two threads of one service — was still
    iterating, poisoning an innocent caller's results.
    """

    __slots__ = ("key", "pool", "active", "retired")

    def __init__(self, key, pool) -> None:
        self.key = key
        self.pool = pool
        self.active = 0  # maps currently iterating this pool
        self.retired = False  # no new maps; terminate when active hits 0


def _current_entry(n_workers: int) -> _PoolEntry:
    """The live cache entry for *n_workers*, creating pool + entry on demand."""
    global _POOLS_ATEXIT_REGISTERED
    n_workers = check_positive_int(n_workers, "n_workers")
    key = (_start_method(), n_workers)
    with _POOLS_LOCK:
        entry = _POOLS.get(key)
        if entry is None:
            _logger.debug("starting shared %s pool with %d workers", *key)
            pool = multiprocessing.get_context(key[0]).Pool(processes=n_workers)
            entry = _POOLS[key] = _PoolEntry(key, pool)
            if not _POOLS_ATEXIT_REGISTERED:
                atexit.register(shutdown_shared_pools)
                _POOLS_ATEXIT_REGISTERED = True
    return entry


def shared_pool(n_workers: int):
    """The process-wide worker pool for *n_workers*, started on first use.

    Pools are cached per worker count and reused across maps, so a campaign
    of many analyses pays worker start-up once instead of per call.  All
    cached pools are terminated at interpreter exit (or explicitly via
    :func:`shutdown_shared_pools`).
    """
    return _current_entry(n_workers).pool


def _checkout_shared_pool(n_workers: int) -> _PoolEntry:
    """Claim the current pool generation for one map (pairs with checkin)."""
    while True:
        entry = _current_entry(n_workers)
        with _POOLS_LOCK:
            if not entry.retired:  # else: raced a retire; take a fresh pool
                entry.active += 1
                return entry


def _checkin_shared_pool(entry: _PoolEntry, *, failed: bool) -> None:
    """Release one map's claim; a failed map retires its pool generation.

    Retiring removes the entry from the cache (new maps start a clean pool)
    but defers termination until every in-flight map on the same generation
    has checked in — concurrent maps on a shared pool must never have their
    workers killed by a neighbour's failure.
    """
    with _POOLS_LOCK:
        entry.active -= 1
        if failed and not entry.retired:
            entry.retired = True
            if _POOLS.get(entry.key) is entry:
                del _POOLS[entry.key]
        terminate = entry.retired and entry.active == 0
    if terminate:
        entry.pool.terminate()
        entry.pool.join()


def shutdown_shared_pools() -> None:
    """Retire every cached shared pool (idempotent; re-use restarts them).

    Pools with no map in flight are terminated immediately; a pool still
    being iterated is terminated by the last map's checkin instead, so a
    shutdown cannot poison concurrent results.
    """
    with _POOLS_LOCK:
        entries = list(_POOLS.values())
        _POOLS.clear()
        to_terminate = []
        for entry in entries:
            entry.retired = True
            if entry.active == 0:
                to_terminate.append(entry)
    for entry in to_terminate:
        entry.pool.terminate()
        entry.pool.join()


@runtime_checkable
class ExecutionBackend(Protocol):
    """Strategy protocol for applying an analysis function to a window stream.

    Implementations expose a ``name`` (one of :data:`BACKEND_NAMES` for the
    built-ins) and a :meth:`map` that applies *func* to every item of
    *items*, yielding results **in input order**.  ``map`` must be safe to
    consume lazily; the built-ins never materialize their input.
    """

    name: str

    def map(self, func: Callable[[_T], _R], items: Iterable[_T]) -> Iterator[_R]:
        """Apply *func* to every item, yielding results in input order."""
        ...


class SerialBackend:
    """In-process lazy execution — one window at a time, no buffering."""

    name = "serial"

    def map(self, func: Callable[[_T], _R], items: Iterable[_T]) -> Iterator[_R]:
        """Apply *func* item-by-item as the result iterator is consumed."""
        return (func(item) for item in items)


class ProcessBackend:
    """Worker-pool execution fed lazily, with a bounded number of tasks in flight.

    :meth:`map` pulls an input item only when a task slot frees up: at most
    ``2 × n_workers`` tasks are submitted ahead of the result being yielded,
    so memory is O(workers), not O(items), however long the input runs.
    Results stream back in input order as each one completes.

    Maps run on the warm :func:`shared_pool` for the backend's worker
    count: the workers persist across calls, so only the first map pays
    pool start-up.  A map that raises retires its pool generation (worker
    state is no longer trusted): the next map starts a fresh pool, while
    concurrent maps still iterating the retired pool finish unharmed.
    """

    name = "process"

    def __init__(self, n_workers: int | None = None, *, payload_transport: str | None = None) -> None:
        from repro.streaming.shm import check_payload_transport

        self.n_workers = default_worker_count() if n_workers is None else check_positive_int(n_workers, "n_workers")
        #: How the engine ships window columns to workers: ``"shm"``
        #: (shared-memory segments, zero-copy, the default where supported)
        #: or ``"pickle"`` (column bytes through the task pipe).
        #: Bit-identical output either way.
        self.payload_transport = check_payload_transport(payload_transport)

    def effective_workers(self, n_items: int) -> int:
        """Workers a map over *n_items* would actually occupy (1 = serial)."""
        return max(0, min(self.n_workers, n_items))

    def downgraded(self, n_items: int) -> bool:
        """Whether a map over *n_items* degrades to serial execution.

        The one place the downgrade decision is made and logged.
        """
        if self.effective_workers(n_items) > 1:
            return False
        if self.n_workers > 1 and n_items:
            _logger.info(
                "downgrading to serial execution: %d task(s) cannot occupy %d workers",
                n_items, self.n_workers,
            )
        return True

    def map(self, func: Callable[[_T], _R], items: Iterable[_T]) -> Iterator[_R]:
        """Apply *func* across the pool, yielding results in input order.

        The first ``n_workers`` items are read up front to size the pool: a
        shorter input occupies only as many workers as it has items, and an
        input of at most one item runs in-process.
        """
        items = iter(items)
        head = list(itertools.islice(items, self.n_workers))
        if self.downgraded(len(head)):
            return SerialBackend().map(func, itertools.chain(head, items))
        n_workers = self.effective_workers(len(head))
        _logger.debug("mapping across %d workers, at most %d tasks in flight", n_workers, 2 * n_workers)
        return self._bounded_map(func, itertools.chain(head, items), n_workers)

    @staticmethod
    def _bounded_map(func, items, n_workers) -> Iterator:
        entry = _checkout_shared_pool(n_workers)
        in_flight: collections.deque = collections.deque()
        failed = False
        try:
            for item in items:
                in_flight.append(entry.pool.apply_async(func, (item,)))
                if len(in_flight) >= 2 * n_workers:
                    yield in_flight.popleft().get()
            while in_flight:
                yield in_flight.popleft().get()
        except GeneratorExit:
            # the consumer abandoned the iteration — no worker failed; the
            # pool is healthy and in-flight tasks simply drain in the
            # background, so keep it warm
            raise
        except BaseException:
            # a failed map leaves in-flight tasks of unknown state behind;
            # retire this pool generation so the next map starts clean —
            # concurrent maps already iterating it finish first (checkin
            # terminates only once the last one releases its claim)
            failed = True
            raise
        finally:
            _checkin_shared_pool(entry, failed=failed)


def get_backend(
    backend: Union[str, ExecutionBackend, None] = None,
    *,
    n_workers: int | None = None,
    payload_transport: str | None = None,
) -> ExecutionBackend:
    """Resolve a backend specification to an :class:`ExecutionBackend`.

    *backend* may be a name from :data:`BACKEND_NAMES`, an already-built
    backend instance (returned as-is), or ``None`` — which preserves the
    historical behaviour of the ``n_workers`` argument: serial unless
    ``n_workers > 1``, then a process pool.  With ``backend="process"`` an
    explicit *n_workers* is honoured exactly (``1`` degrades to serial
    execution, logged); ``None`` picks :func:`default_worker_count`.
    *payload_transport* selects how the process backend ships window
    columns (:data:`repro.streaming.shm.TRANSPORT_NAMES`); requesting it
    for a backend that ships no payloads is an error, not a silent no-op.
    A given *n_workers* must be a positive integer whatever the backend,
    even one that ignores it.
    """
    if n_workers is not None:
        n_workers = check_positive_int(n_workers, "n_workers")
    if backend is None:
        if n_workers is not None and n_workers > 1:
            return ProcessBackend(n_workers, payload_transport=payload_transport)
        backend = "serial"
    if isinstance(backend, str):
        if backend == "process":
            return ProcessBackend(n_workers, payload_transport=payload_transport)
        if payload_transport is not None:
            raise ValueError(
                f"payload_transport={payload_transport!r} only applies to the process "
                f"backend, not {backend!r}"
            )
        if backend == "serial":
            return SerialBackend()
        raise ValueError(f"unknown backend {backend!r}; expected one of {BACKEND_NAMES}")
    if isinstance(backend, ExecutionBackend):
        if payload_transport is not None:
            raise ValueError(
                "payload_transport cannot be combined with an already-built backend "
                "instance; pass it to the ProcessBackend constructor instead"
            )
        return backend
    raise TypeError(f"backend must be a name, ExecutionBackend, or None, got {type(backend).__name__}")

