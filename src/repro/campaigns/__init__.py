"""Campaign orchestration: declarative sweeps over a content-addressed store.

This subpackage makes *fleets* of runs cheap to own.  A
:class:`~repro.campaigns.spec.Campaign` expands a parameter grid (scenarios
× seeds × window sizes × modes) into content-hashed
:class:`~repro.campaigns.spec.RunSpec` cells, one per key; the runner
computes each cell on the serial window map — fanning cells out across
worker processes with ``pool="process"`` — and persists every result in an
on-disk :class:`~repro.campaigns.store.ResultStore` keyed by the spec hash.
Consequences:

* re-running a finished campaign recomputes **nothing** — every cell is a
  warm O(read) hit, and the assembled report is byte-identical;
* a killed sweep resumes where it stopped: completed cells were persisted
  atomically as they finished, so only the missing ones run.

Quickstart::

    from repro.campaigns import Campaign, CampaignReport, run_campaign

    campaign = Campaign(
        "drift-sweep",
        scenarios=("stationary", "alpha-drift"),
        seeds=(0, 1, 2),
        n_valids=(5_000,),
        chunk_packets=10_000,
    )
    run = run_campaign(campaign, "results-store", pool="process")
    print(run.n_computed, run.n_cached)          # cold: (6, 0); warm: (0, 6)
    print(CampaignReport.from_store("results-store", "drift-sweep").render())

Beyond one process, the store doubles as the fleet's queue: N workers
(processes or machines on a shared filesystem) sweep one grid by claiming
cells through atomic lease files — deterministic ``k/N`` sharding first,
lease-guarded work-stealing for the tail, stale-lease takeover for dead
workers — with no scheduler::

    # worker k of N (run one such process per k):
    run_campaign(campaign, "results-store", workers=N, worker_index=k)

A cell whose analysis raises becomes a ``status="failed"`` outcome instead
of aborting the sweep; every other cell still computes.

CLI: ``repro campaign run|status|report`` (``run --workers N --worker-id
k/N`` for fleets; ``status`` reports per-fleet lease state).
"""

from repro._util.lazy import lazy_exports

__all__ = [
    "Campaign",
    "CampaignReport",
    "CampaignRun",
    "CellOutcome",
    "DEFAULT_LEASE_TTL_SECONDS",
    "ResultStore",
    "RunSpec",
    "content_key",
    "fleet_status_rows",
    "lease_rows",
    "parse_worker_id",
    "run_campaign",
    "scenario_fingerprint",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".report": ("CampaignReport", "fleet_status_rows", "lease_rows"),
        ".runner": ("CampaignRun", "CellOutcome", "parse_worker_id", "run_campaign"),
        ".spec": ("Campaign", "RunSpec", "content_key", "scenario_fingerprint"),
        ".store": ("DEFAULT_LEASE_TTL_SECONDS", "ResultStore"),
    },
)
