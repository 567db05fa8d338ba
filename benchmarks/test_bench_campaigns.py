"""Benchmark — campaign sweeps cold vs. warm through the result store.

Runs one moderate campaign grid (3 scenarios × 2 seeds) three ways — cold
serial, cold with process-pool fan-out, and warm (every cell already
stored) — and writes a ``BENCH_campaigns.json`` artifact recording the
cold/warm wall-clock ratio: the operational point of the store is that the
warm sweep costs O(read) per cell, orders of magnitude under recompute.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.campaigns import Campaign, run_campaign

# cold campaign sweeps across pools — deselected by `pytest -m "not slow"` (fast local loop)
pytestmark = pytest.mark.slow


SEEDS = (0, 1)
SCENARIOS = ("stationary", "alpha-drift", "flash-crowd")
N_VALID = 5_000

_RESULTS: dict[str, dict] = {}


def _campaign() -> Campaign:
    return Campaign(
        "bench-sweep",
        scenarios=SCENARIOS,
        seeds=SEEDS,
        n_valids=(N_VALID,),
        chunk_packets=10_000,
    )


@pytest.fixture(scope="module", autouse=True)
def _warm_engine():
    """Prime imports/numpy once so the first timed case is not inflated."""
    from repro.scenarios import analyze_scenario

    analyze_scenario("stationary", N_VALID, seed=0, keep_windows=False)


@pytest.mark.parametrize(
    "case, pool, prewarm",
    [
        ("cold/serial-pool", None, False),
        ("cold/process-pool", "process", False),
        ("warm", None, True),
    ],
)
def test_bench_campaign_sweep(benchmark, tmp_path, case, pool, prewarm):
    campaign = _campaign()
    store = tmp_path / "store"
    if prewarm:
        run_campaign(campaign, store)

    start = time.perf_counter()
    run = benchmark.pedantic(
        run_campaign, args=(campaign, store), kwargs={"pool": pool}, rounds=1, iterations=1
    )
    elapsed = time.perf_counter() - start

    assert run.complete
    assert run.n_computed == (0 if prewarm else campaign.n_cells)
    row = {
        "case": case,
        "seconds": round(elapsed, 4),
        "n_cells": run.n_cells,
        "n_computed": run.n_computed,
        "n_cached": run.n_cached,
    }
    _RESULTS[case] = row
    benchmark.extra_info["rows"] = [json.loads(json.dumps(row, default=str))]


def test_bench_campaign_artifact(machine_meta, write_artifact):
    """Write the campaign benchmark artifact (runs after the timed cases)."""
    if not _RESULTS:
        pytest.skip("no campaign timings collected in this run")
    cold = _RESULTS.get("cold/serial-pool", {}).get("seconds")
    warm = _RESULTS.get("warm", {}).get("seconds")
    report = {
        "benchmark": "campaign_orchestrator",
        "grid": {"scenarios": list(SCENARIOS), "seeds": list(SEEDS), "n_valid": N_VALID},
        "machine": machine_meta("best-of-1 wall clock (time.perf_counter), rounds=1"),
        "cases": _RESULTS,
        "cold_over_warm": round(cold / warm, 2) if cold and warm else None,
    }
    artifact = write_artifact("BENCH_campaigns.json", report)
    assert artifact.exists()
