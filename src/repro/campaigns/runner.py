"""Campaign execution: claim cells from the store, contain failures, converge.

:func:`run_campaign` is deliberately thin glue between three existing
pieces: the grid expansion (:class:`~repro.campaigns.spec.Campaign`), the
scenario engine (:func:`repro.scenarios.run.analyze_scenario`), and the
content-addressed store (:class:`~repro.campaigns.store.ResultStore`).  Its
contract:

* a cell whose content key is already in the store is **never recomputed**
  — a warm re-run of a finished campaign costs one read per cell;
* every completed cell is persisted atomically *as it finishes*, so killing
  a sweep loses at most the cells in flight — re-running the campaign
  resumes with exactly the missing cells;
* a cell whose analysis **raises** becomes a ``status="failed"`` outcome —
  the exception is contained, the rest of the grid still computes, and the
  failure (with its error text) is reported instead of aborting the sweep;
* each cell runs the engine's serial window map; the one parallelism knob
  is run-level fan-out through the engine's
  :class:`~repro.streaming.parallel.ExecutionBackend` pool (``pool=
  "process"`` computes independent cells on worker processes).

**Fleets.**  The store doubles as the scheduler: N ``run_campaign(...,
workers=N, worker_index=k)`` processes — or N machines on a shared
filesystem — sweep one grid with no coordinator.  Each worker claims a
cell by taking its lease (``O_EXCL`` file create, see
:mod:`repro.campaigns.store`), heartbeats while computing, and releases on
completion.  The first pass is deterministically sharded (worker *k* owns
every *k*-th missing cell), so a healthy fleet never contends; the
tail is **work-stealing** — each worker sweeps the remaining missing keys,
taking over leases whose heartbeat went stale (dead workers) and waiting
out live ones, until every key is stored or failed.  Convergence needs no
messages: the store's atomic writes are the only shared state.
"""

from __future__ import annotations

import functools
import os
import socket
import threading
import time
from dataclasses import dataclass
from typing import Optional, Union

from repro._util.logging import get_logger
from repro.campaigns.spec import Campaign, RunSpec
from repro.campaigns.store import DEFAULT_LEASE_TTL_SECONDS, ResultStore
from repro.scenarios.run import analyze_scenario

__all__ = ["CellOutcome", "CampaignRun", "parse_worker_id", "run_campaign"]

_logger = get_logger("campaigns.runner")


def parse_worker_id(text: str) -> tuple[int, int]:
    """Parse a ``"k/N"`` fleet-member id into ``(worker_index, workers)``.

    ``k`` is 1-based: ``"2/4"`` is the second of four workers.  Raises
    ``ValueError`` on anything that is not ``1 <= k <= N``.
    """
    head, sep, tail = text.partition("/")
    try:
        if not sep:
            raise ValueError(text)
        index, total = int(head), int(tail)
    except ValueError:
        raise ValueError(
            f"worker id must look like 'k/N' (e.g. '2/4'), got {text!r}"
        ) from None
    if total < 1 or not 1 <= index <= total:
        raise ValueError(f"worker id {text!r} must satisfy 1 <= k <= N")
    return index, total


@dataclass(frozen=True)
class CellOutcome:
    """What happened to one grid cell during a campaign run.

    ``status`` is one of ``"computed"`` (freshly analysed and stored),
    ``"cached"`` (complete in the store before the run, or stored by
    another fleet member during it), ``"failed"`` (the cell's analysis
    raised; ``error`` holds the one-line reason and nothing was stored), or
    ``"skipped"`` (left for later by a ``max_cells`` cap).  ``seconds`` is the compute time for
    freshly computed cells and ``None`` otherwise; ``n_windows`` is
    ``None`` for skipped and failed cells — and for cached cells whose
    stored record predates window-count recording (e.g. written by
    :meth:`~repro.campaigns.store.ResultStore.get_or_compute` or an older
    store), which render with an empty ``windows`` column.  ``attempts``
    counts how many times the cell's analysis ran under a retry budget
    (1 = first try succeeded); ``None`` for skipped cells and for cached
    cells whose stored record predates attempt recording.
    """

    key: str
    scenario: str
    seed: int
    n_valid: int
    status: str
    mode: str = "exact"
    seconds: Optional[float] = None
    n_windows: Optional[int] = None
    error: Optional[str] = None
    attempts: Optional[int] = None

    def as_row(self) -> dict:
        """Flat dict row for tables."""
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "nv": self.n_valid,
            "mode": self.mode,
            "status": self.status,
            "seconds": "" if self.seconds is None else round(self.seconds, 3),
            "windows": "" if self.n_windows is None else self.n_windows,
            "attempts": "" if self.attempts is None else self.attempts,
            "key": self.key[:12],
        }


@dataclass(frozen=True)
class CampaignRun:
    """Summary of one :func:`run_campaign` invocation."""

    campaign: Campaign
    store_root: str
    outcomes: tuple[CellOutcome, ...]

    @property
    def n_cells(self) -> int:
        """Total grid cells of the campaign."""
        return len(self.outcomes)

    @property
    def n_computed(self) -> int:
        """Cells actually analysed this run (the cold part of the sweep)."""
        return sum(1 for o in self.outcomes if o.status == "computed")

    @property
    def n_cached(self) -> int:
        """Cells satisfied from the store (warm hits)."""
        return sum(1 for o in self.outcomes if o.status == "cached")

    @property
    def n_failed(self) -> int:
        """Cells whose analysis raised (contained, reported, not stored)."""
        return sum(1 for o in self.outcomes if o.status == "failed")

    @property
    def n_skipped(self) -> int:
        """Cells left uncomputed by a ``max_cells`` cap."""
        return sum(1 for o in self.outcomes if o.status == "skipped")

    @property
    def complete(self) -> bool:
        """True when every grid cell now has a stored result."""
        return self.n_skipped == 0 and self.n_failed == 0

    @property
    def failures(self) -> tuple[CellOutcome, ...]:
        """The failed outcomes, in grid order."""
        return tuple(o for o in self.outcomes if o.status == "failed")

    def failure_lines(self) -> list[str]:
        """One human-readable line per failed cell."""
        return [
            f"failed {outcome.scenario} seed={outcome.seed} nv={outcome.n_valid} "
            f"mode={outcome.mode} [{outcome.key[:12]}]: {outcome.error}"
            for outcome in self.failures
        ]

    def as_rows(self) -> list[dict]:
        """Per-cell outcome rows, in grid order."""
        return [outcome.as_row() for outcome in self.outcomes]


def _fleet_owner(worker_index: int, workers: int) -> str:
    """Stable identity of this fleet member, recorded in every lease it takes."""
    return f"{socket.gethostname()}:{os.getpid()}:{worker_index}/{workers}"


def _claim_and_compute_cell(
    spec: RunSpec,
    *,
    store: ResultStore,
    owner: str,
    ttl: float,
    heartbeat: float,
    recompute: bool = False,
    cell_retries: int = 0,
) -> dict:
    """Claim one cell's lease, analyse it, persist it, release the lease.

    Runs in-process on *store*, the store :func:`run_campaign` opened, or
    on a pool worker on an unpickled copy of it (which skips the open's
    prune pass, so the tree is walked once per run, not once per cell).
    Always returns a result dict, never raises for a cell-level failure
    (that is the containment contract — one bad cell must not sink the
    sweep):

    * ``{"status": "cached"}`` — the cell appeared in the store before we
      could claim it (another fleet member finished it);
    * ``{"status": "lost"}`` — a live lease blocks the claim; the caller
      retries later (work-stealing tail) or leaves it to its holder;
    * ``{"status": "computed", "seconds", "n_windows", "attempts"}`` — the
      happy path;
    * ``{"status": "failed", "error", "attempts"}`` — the analysis raised
      on every allowed attempt; the lease is released so the failure is
      observable fleet-wide (another worker may retry and fail the same
      way — each run reports its own attempt).

    *cell_retries* is the per-cell retry budget: a raising analysis is
    re-run up to that many extra times **while the lease is held** (so no
    other fleet member duplicates the work), and the attempt count is
    recorded in the stored cell's meta.

    A daemon thread refreshes the lease heartbeat every *heartbeat*
    seconds while the analysis runs, so long cells never read as stale.
    ``KeyboardInterrupt``/``SystemExit`` still propagate: killing a sweep
    is not a cell failure, and the ``finally`` releases the claim.
    """
    if not recompute and spec.key in store:
        return {"key": spec.key, "status": "cached"}
    if not store.acquire_lease(spec.key, owner, ttl=ttl):
        info = store.lease_info(spec.key, ttl=ttl)
        return {"key": spec.key, "status": "lost",
                "holder": None if info is None else info["owner"]}
    stop = threading.Event()

    def _beat() -> None:
        while not stop.wait(heartbeat):
            if not store.refresh_lease(spec.key, owner):
                return  # lease lost (taken over); compute finishes idempotently

    beater = threading.Thread(target=_beat, name="lease-heartbeat", daemon=True)
    beater.start()
    try:
        # re-check under the lease: the previous holder may have persisted
        # the cell and died before releasing
        if not recompute and spec.key in store:
            return {"key": spec.key, "status": "cached"}
        attempts = 0
        while True:
            attempts += 1
            started = time.perf_counter()
            try:
                run = analyze_scenario(
                    spec.scenario,
                    spec.n_valid,
                    seed=spec.seed,
                    quantities=spec.quantities,
                    chunk_packets=spec.chunk_packets,
                    block_packets=spec.block_packets,
                    keep_windows=False,
                    detectors=spec.detectors,
                    mode=spec.mode,
                    sketch=spec.sketch,
                )
                seconds = time.perf_counter() - started
                n_windows = run.analysis.n_windows
                store.put(
                    spec.key,
                    run,
                    meta={"spec": spec.as_manifest(), "seconds": round(seconds, 6),
                          "n_windows": n_windows, "attempts": attempts},
                )
            except Exception as error:
                seconds = time.perf_counter() - started
                message = f"{type(error).__name__}: {error}"
                if attempts <= cell_retries:
                    _logger.warning(
                        "cell %s attempt %d/%d failed after %.3fs: %s — retrying",
                        spec.key[:12], attempts, cell_retries + 1, seconds, message,
                    )
                    continue
                _logger.warning(
                    "cell %s failed after %.3fs (%d attempt(s)): %s",
                    spec.key[:12], seconds, attempts, message,
                )
                return {"key": spec.key, "status": "failed", "error": message,
                        "seconds": seconds, "attempts": attempts}
            return {"key": spec.key, "status": "computed", "seconds": seconds,
                    "n_windows": n_windows, "attempts": attempts}
    finally:
        stop.set()
        store.release_lease(spec.key, owner)


def run_campaign(
    campaign: Campaign,
    store: Union[ResultStore, str],
    *,
    pool: str | None = None,
    pool_workers: int | None = None,
    max_cells: int | None = None,
    recompute: bool = False,
    cell_retries: int = 0,
    workers: int = 1,
    worker_index: int = 1,
    lease_ttl: float = DEFAULT_LEASE_TTL_SECONDS,
    heartbeat_seconds: float | None = None,
) -> CampaignRun:
    """Run (or resume) a campaign against a result store.

    Parameters
    ----------
    campaign:
        The grid to sweep.  Its manifest is recorded in the store, so
        ``status`` and ``report`` need only the store and the name.
    store:
        A :class:`ResultStore` or the path of one (created if absent).
    pool:
        Run-level fan-out backend: ``None``/``"serial"`` computes cells one
        by one; ``"process"`` distributes independent cells across worker
        processes.  This is the campaign's one parallelism knob: every cell
        runs the serial window map.
    pool_workers:
        Worker count for ``pool="process"``.
    max_cells:
        Attempt at most this many missing cells (``>= 0``), leaving the rest
        ``"skipped"`` — for smoke runs and partial sweeps; re-running the
        campaign picks up exactly the cells left behind.
    recompute:
        Ignore existing store entries and recompute every cell (the cache
        escape hatch; stored results are replaced).  Incompatible with
        ``max_cells`` — a capped recompute could never advance past the
        first cells — and with fleets (``workers > 1``), whose convergence
        test is precisely "is the key stored yet".
    cell_retries:
        Per-cell retry budget: a cell whose analysis raises is re-run up
        to this many extra times (while its lease is held) before being
        recorded as failed.  The attempt count lands in the stored cell's
        meta and in each :class:`CellOutcome`.  Default 0: fail on the
        first raise, the historical behaviour.
    workers / worker_index:
        Fleet shape: this process is worker ``worker_index`` (1-based) of
        ``workers`` sweeping the same grid against the same store.  The
        default ``1/1`` is a fleet of one and behaves exactly like the
        historical single-process sweep.  Fleet members coordinate purely
        through store leases; see the module docstring.
    lease_ttl:
        Seconds without a heartbeat after which a lease counts as stale
        and may be taken over.  Every member of one fleet should use the
        same value.
    heartbeat_seconds:
        Heartbeat period while computing a cell (default ``lease_ttl / 3``).
        A worker with nothing claimable re-checks the store every
        ``min(1, lease_ttl / 4)`` seconds.

    Returns
    -------
    CampaignRun
        One :class:`CellOutcome` per grid cell, in deterministic grid order.
        ``status="failed"`` outcomes carry the contained per-cell error.
    """
    from repro.streaming.parallel import get_backend

    if recompute and max_cells is not None:
        # a capped recompute can never advance: the deterministic todo order
        # would re-select the same first cells on every invocation
        raise ValueError("recompute=True cannot be combined with max_cells")
    if max_cells is not None and max_cells < 0:
        raise ValueError(f"max_cells must be >= 0, got {max_cells}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if not 1 <= worker_index <= workers:
        raise ValueError(
            f"worker_index must be in 1..workers (= {workers}), got {worker_index}"
        )
    if recompute and workers > 1:
        raise ValueError(
            "recompute=True cannot run as a fleet: workers converge on 'key is "
            "stored', which recompute deliberately ignores — recompute with a "
            "single worker instead"
        )
    if cell_retries < 0:
        raise ValueError(f"cell_retries must be >= 0, got {cell_retries}")
    if lease_ttl <= 0:
        raise ValueError(f"lease_ttl must be > 0, got {lease_ttl}")
    heartbeat = lease_ttl / 3 if heartbeat_seconds is None else heartbeat_seconds
    if not 0 < heartbeat < lease_ttl:
        raise ValueError(
            f"heartbeat_seconds must be in (0, lease_ttl); got {heartbeat} vs ttl {lease_ttl}"
        )
    poll = min(1.0, lease_ttl / 4)

    store = store if isinstance(store, ResultStore) else ResultStore(store)
    cells = campaign.cells()
    targets = list(cells) if recompute else [spec for spec in cells if spec.key not in store]

    budget = None if max_cells is None else int(max_cells)

    # pool=None means serial, full stop — never the historical "process when
    # n_workers > 1" inference of get_backend(None, ...); fan-out across
    # processes must be an explicit pool="process" choice
    pool_backend = get_backend(pool or "serial", n_workers=pool_workers)
    # record the manifest only once the run is actually going to happen, so
    # a rejected invocation leaves no stray campaign in the store; warn when
    # this replaces a *different* grid recorded under the same name (the old
    # grid's cells stay in the store but fall out of status/report)
    try:
        previous = store.load_campaign(campaign.name)
    except KeyError:
        previous = None
    if previous is not None:
        old_keys = {cell["key"] for cell in previous["cells"]}
        new_keys = {spec.key for spec in cells}
        if old_keys != new_keys:
            _logger.warning(
                "campaign %r already exists in %s with a different grid "
                "(%d cells -> %d); its manifest is being replaced — results of "
                "dropped cells remain stored but unreported",
                campaign.name, store.root, len(old_keys), len(new_keys),
            )
    store.save_campaign(campaign.as_manifest())
    owner = _fleet_owner(worker_index, workers)
    _logger.info(
        "campaign %r: %d cells, %d missing (%s pool, worker %d/%d)",
        campaign.name, len(cells), len(targets), pool_backend.name,
        worker_index, workers,
    )

    claim = functools.partial(
        _claim_and_compute_cell,
        store=store,
        owner=owner,
        ttl=lease_ttl,
        heartbeat=heartbeat,
        recompute=recompute,
        cell_retries=cell_retries,
    )
    # key -> terminal local result ("computed" or "failed")
    attempted: dict[str, dict] = {}

    def run_round(specs: list[RunSpec]) -> bool:
        """Claim-and-compute *specs*; True when any cell reached a terminal state."""
        progress = False
        for result in pool_backend.map(claim, specs):
            if result["status"] in ("computed", "failed"):
                attempted[result["key"]] = result
                progress = True
                _logger.debug(
                    "%s cell %s in %.3fs", result["status"], result["key"][:12],
                    result.get("seconds", 0.0),
                )
            elif result["status"] == "cached":
                progress = True  # another fleet member stored it — the grid advanced
        return progress

    def still_missing(specs: list[RunSpec]) -> list[RunSpec]:
        remaining = [s for s in specs if s.key not in attempted]
        if recompute:
            return remaining
        return [s for s in remaining if s.key not in store]

    def capped(specs: list[RunSpec]) -> list[RunSpec]:
        if budget is None:
            return specs
        return specs[: max(0, budget - len(attempted))]

    # first pass: deterministic k/N sharding — a healthy fleet partitions the
    # missing keys without ever contending on a lease
    shard = [spec for i, spec in enumerate(targets) if i % workers == worker_index - 1]
    run_round(capped(still_missing(shard)))

    # work-stealing tail: sweep every key still missing (other workers'
    # shards included), taking over stale leases, until the grid converges.
    # A round with no progress means every remaining key is leased to a
    # live worker — sleep one poll and look again; its result will land in
    # the store (cached) or its lease will go stale (takeover).
    while True:
        remaining = capped(still_missing(targets))
        if not remaining:
            break
        if not run_round(remaining):
            time.sleep(poll)

    # tidy the lease area on the way out: leases whose key is now stored
    # (holder died between put and release) and TTL-stale leftovers; live
    # claims of other fleet members are untouched
    collected = store.gc_leases(ttl=lease_ttl)
    if collected:
        _logger.info("collected %d leftover lease(s) at sweep end", collected)

    outcomes = []
    for spec in cells:
        key = spec.key
        common = {
            "key": key,
            "scenario": spec.scenario.name,
            "seed": spec.seed,
            "n_valid": spec.n_valid,
            "mode": spec.mode,
        }
        local = attempted.get(key)
        if local is not None and local["status"] == "failed":
            outcomes.append(
                CellOutcome(status="failed", seconds=local.get("seconds"),
                            error=local["error"], attempts=local.get("attempts"),
                            **common)
            )
        elif local is not None:
            outcomes.append(
                CellOutcome(
                    status="computed", seconds=local["seconds"],
                    n_windows=local["n_windows"], attempts=local.get("attempts"),
                    **common,
                )
            )
        elif key in store:
            # warm hits and cells another fleet member computed resolve here
            record = store.record(key)
            outcomes.append(
                CellOutcome(status="cached", n_windows=record.get("n_windows"),
                            attempts=record.get("attempts"), **common)
            )
        else:
            outcomes.append(CellOutcome(status="skipped", **common))
    return CampaignRun(campaign=campaign, store_root=str(store.root), outcomes=outcomes)
