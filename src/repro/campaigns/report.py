"""Cross-run comparison tables assembled from the result store.

A :class:`CampaignReport` is built from a store and a campaign name alone —
no live :class:`~repro.campaigns.spec.Campaign` object needed — because the
runner records the campaign manifest in the store.  Everything the report
prints is a pure function of stored payloads with deterministic ordering
and rounding, so re-rendering a finished campaign produces byte-identical
text: the property the warm-path test pins down.

Three tables:

* **cells** — one row per grid cell: how many windows, the head
  probability ``D(d=1)``, and the max adjacent-phase drift;
* **summary** — per (scenario, N_V) group across seeds: mean/σ of the
  pooled head probability and the drift statistic (the cross-seed view the
  grid exists to produce);
* **engine** — the engine stats of each stored run (backend that computed
  it, chunk count, peak buffered packets).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import sqrt
from typing import Mapping, Union

from repro._util.validation import check_positive
from repro.analysis.summary import format_table
from repro.campaigns.store import DEFAULT_LEASE_TTL_SECONDS, ResultStore

__all__ = ["CampaignReport", "fleet_status_rows", "lease_rows"]


def fleet_status_rows(
    store: ResultStore, names: list[str], *, ttl: float = DEFAULT_LEASE_TTL_SECONDS
) -> list[dict]:
    """Per-campaign fleet progress: computed / leased-by-whom / stale / missing.

    One row per campaign in *names*, merge-safe by construction: everything
    here is read from the store (records and lease files) with no
    interpolation, so any number of workers — and any number of concurrent
    ``status`` invocations — see a consistent count-up.  ``stored`` uses the
    record-level presence check (stat + JSON, no payload hashing) so status
    stays O(cells); ``leased``/``stale`` age each missing key's lease
    against *ttl*.  ``retried`` counts stored cells whose recorded attempt
    count exceeds 1 — work a retry budget (``--cell-retries``) rescued.
    ``cells`` counts distinct content keys, so a manifest that lists one
    key twice (stores written while grids had a backend axis) counts it
    once.  A non-positive *ttl* raises ``ValueError``.
    """
    check_positive(ttl, "lease_ttl")
    rows = []
    for name in names:
        manifest = store.load_campaign(name)
        keys = {cell["key"] for cell in manifest["cells"]}
        stored = leased = stale = retried = 0
        holders: set[str] = set()
        for key in sorted(keys):
            try:
                record = store.record(key)
            except KeyError:
                pass
            else:
                stored += 1
                if (record.get("attempts") or 1) > 1:
                    retried += 1
                continue
            info = store.lease_info(key, ttl=ttl)
            if info is None:
                continue
            if info["stale"]:
                stale += 1
            else:
                leased += 1
                holders.add(info["owner"])
        rows.append(
            {
                "campaign": name,
                "cells": len(keys),
                "stored": stored,
                "retried": retried,
                "leased": leased,
                "stale": stale,
                "missing": len(keys) - stored - leased - stale,
                "workers": " ".join(sorted(holders)),
                "complete": stored == len(keys),
            }
        )
    return rows


def lease_rows(
    store: ResultStore, *, ttl: float = DEFAULT_LEASE_TTL_SECONDS
) -> list[dict]:
    """One row per lease on disk: who holds what, and how stale it is.

    The detail view behind the ``leased``/``stale`` counts of
    :func:`fleet_status_rows`, for answering "which worker is stuck".  A
    lease on an already-stored key renders as state ``done`` — its holder
    persisted the cell but died before releasing (``gc_leases`` food).
    """
    rows = []
    for info in store.iter_leases(ttl=ttl):
        try:
            store.record(info["key"])
            state = "done"
        except KeyError:
            state = "stale" if info["stale"] else "live"
        rows.append(
            {
                "key": info["key"][:12],
                "owner": info["owner"],
                "host": info["host"],
                "pid": "" if info["pid"] is None else info["pid"],
                "age_s": round(info["age"], 1),
                "state": state,
            }
        )
    return rows


def _mean_std(values: list[float]) -> tuple[float, float]:
    """Population mean and σ of a small list (deterministic, no numpy dtypes)."""
    n = len(values)
    if n == 0:
        return 0.0, 0.0
    mean = sum(values) / n
    variance = sum((v - mean) ** 2 for v in values) / n
    return mean, sqrt(variance)


@dataclass(frozen=True)
class CampaignReport:
    """Comparison tables for one campaign, assembled from stored results.

    Attributes
    ----------
    name:
        Campaign name (the manifest key in the store).
    manifest:
        The recorded campaign manifest (name, description, expanded cells).
    results:
        Stored :class:`~repro.scenarios.run.ScenarioRun` payloads keyed by
        content key.
    missing:
        Content keys the manifest lists but the store does not hold yet
        (an interrupted sweep); their cells render with empty metrics.
    attempts:
        Recorded analysis attempt count per stored key (absent for records
        written before retry budgets existed); ``attempts > 1`` marks a
        cell a retry budget rescued.
    """

    name: str
    manifest: Mapping
    results: Mapping[str, object]
    missing: tuple[str, ...]
    attempts: Mapping[str, int] = field(default_factory=dict)

    @classmethod
    def from_store(cls, store: Union[ResultStore, str], name: str) -> "CampaignReport":
        """Load a campaign's manifest and every stored cell payload."""
        store = store if isinstance(store, ResultStore) else ResultStore(store)
        manifest = store.load_campaign(name)
        results: dict[str, object] = {}
        attempts: dict[str, int] = {}
        missing = []
        # a manifest may list one key twice (stores written while grids had
        # a backend axis); read each key once
        for key in dict.fromkeys(cell["key"] for cell in manifest["cells"]):
            try:
                # one verified read per cell; a torn/corrupt/undecodable
                # cell reports as missing rather than crashing the report
                results[key] = store.get(key)
            except KeyError:
                missing.append(key)
                continue
            recorded = store.record(key).get("attempts")
            if recorded is not None:
                attempts[key] = int(recorded)
        return cls(name=name, manifest=manifest, results=results,
                   missing=tuple(missing), attempts=attempts)

    @property
    def complete(self) -> bool:
        """True when every cell of the campaign has a stored result."""
        return not self.missing

    def cell_rows(self, quantity: str) -> list[dict]:
        """One row per grid cell, in grid order.

        A key listed twice (stores written while grids had a backend axis)
        renders once, at its first position.
        """
        rows = []
        listed: set[str] = set()
        for cell in self.manifest["cells"]:
            if cell["key"] in listed:
                continue
            listed.add(cell["key"])
            row: dict[str, object] = {
                "scenario": cell["scenario"],
                "seed": cell["seed"],
                "nv": cell["n_valid"],
                "mode": cell.get("mode", "exact"),
            }
            run = self.results.get(cell["key"])
            if run is None:
                row.update({"windows": "", "D(d=1)": "", "max_drift": "",
                            "attempts": "", "status": "missing"})
            else:
                pooled = run.analysis.pooled(quantity)
                row.update(
                    {
                        "windows": run.analysis.n_windows,
                        "D(d=1)": round(float(pooled.values[0]), 6) if pooled.n_bins else 0.0,
                        "max_drift": round(run.phases.max_drift(quantity), 4),
                        "attempts": self.attempts.get(cell["key"], ""),
                        "status": "stored",
                    }
                )
            rows.append(row)
        return rows

    def summary_rows(self, quantity: str) -> list[dict]:
        """Cross-seed aggregation per (scenario, N_V, mode) group, in grid order."""
        groups: dict[tuple[str, int, str], dict[int, object]] = {}
        for cell in self.manifest["cells"]:
            run = self.results.get(cell["key"])
            if run is None:
                continue
            # keyed by seed: a key listed twice (old stores) counts once
            groups.setdefault(
                (cell["scenario"], cell["n_valid"], cell.get("mode", "exact")), {}
            )[cell["seed"]] = run
        rows = []
        for (scenario, n_valid, mode), members in groups.items():
            heads = []
            drifts = []
            for run in members.values():
                pooled = run.analysis.pooled(quantity)
                heads.append(float(pooled.values[0]) if pooled.n_bins else 0.0)
                drifts.append(run.phases.max_drift(quantity))
            head_mean, head_sigma = _mean_std(heads)
            drift_mean, _ = _mean_std(drifts)
            rows.append(
                {
                    "scenario": scenario,
                    "nv": n_valid,
                    "mode": mode,
                    "seeds": len(members),
                    "D(d=1) mean": round(head_mean, 6),
                    "D(d=1) sigma": round(head_sigma, 6),
                    "max_drift mean": round(drift_mean, 4),
                    "max_drift max": round(max(drifts, default=0.0), 4),
                }
            )
        return rows

    def engine_rows(self) -> list[dict]:
        """Engine statistics of each stored run, in key order."""
        rows = []
        for key in sorted(self.results):
            stats = self.results[key].engine_stats
            rows.append(
                {
                    "key": key[:12],
                    "scenario": stats.get("scenario", ""),
                    "mode": stats.get("mode", "exact"),
                    "computed_by": stats.get("backend", ""),
                    "n_chunks": stats.get("n_chunks", ""),
                    "max_buffered_packets": stats.get("max_buffered_packets", ""),
                }
            )
        return rows

    def render(self, quantity: str = "source_fanout") -> str:
        """The full report as deterministic text (what the CLI prints)."""
        n_cells = len(self.manifest["cells"])
        lines = [
            f"campaign {self.name!r}: {n_cells} cells, "
            f"{len(self.results)} unique results stored, {len(self.missing)} missing",
            "",
            f"cells — {quantity}:",
            format_table(self.cell_rows(quantity)),
            "",
            f"cross-seed summary — {quantity}:",
            format_table(self.summary_rows(quantity)),
            "",
            "engine stats per stored run:",
            format_table(self.engine_rows()),
        ]
        return "\n".join(lines)
