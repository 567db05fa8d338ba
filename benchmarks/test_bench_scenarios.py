"""Benchmark — scenario generation + analysis through the engine backends.

Times :func:`repro.scenarios.analyze_scenario` (generation, windowing, and
the per-phase fold in one pass) for a representative slice of the built-in
catalogue unchunked and chunked (the ``streaming`` rows), and writes a
``BENCH_scenarios.json`` artifact so the scenario subsystem's perf
trajectory is tracked across PRs.  Backend equality of the pooled output is
asserted as the cases run.

Timing method: each case is run ``ROUNDS`` times after one untimed warm-up
and the **best** wall-clock is recorded, mirroring the streaming-engine
bench — the per-case warm-up matters because the first run of a case pays
one-time costs (lazy imports, first-call code paths), and without it
whichever case happens to run first reports an inflated number that trips
``tools/check_bench.py``.  The ``streaming`` rows keep the label of the
backend that used to run them; they run the serial backend and differ from
the serial rows only by the chunked, bounded-buffer scenario reads.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.scenarios import analyze_scenario, get_scenario
from repro.streaming.aggregates import QUANTITY_NAMES

SEED = 20210329
N_VALID = 5_000
CHUNK_PACKETS = 10_000
SCENARIOS = ("stationary", "alpha-drift", "flash-crowd")
ROUNDS = 3
TIMING = f"best-of-{ROUNDS} wall clock (time.perf_counter), 1 warm-up round per case"

_RESULTS: dict[str, dict] = {}
_SERIAL_POOLED: dict[str, dict[str, np.ndarray]] = {}


def _run(name: str, backend: str):
    kwargs = {"backend": backend, "keep_windows": False}
    if backend == "streaming":
        kwargs.update(backend="serial", chunk_packets=CHUNK_PACKETS)
    return analyze_scenario(name, N_VALID, seed=SEED, **kwargs)


@pytest.mark.parametrize("backend", ["serial", "streaming"])
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_bench_scenarios(scenario, backend):
    _run(scenario, backend)  # warm-up: imports, caches, backend machinery
    elapsed = float("inf")
    run = None
    for _ in range(ROUNDS):
        start = time.perf_counter()
        run = _run(scenario, backend)
        elapsed = min(elapsed, time.perf_counter() - start)

    assert run.analysis.n_windows > 0
    if backend == "serial":
        _SERIAL_POOLED[scenario] = {
            q: run.analysis.pooled(q).values for q in QUANTITY_NAMES
        }
    elif scenario in _SERIAL_POOLED:
        for quantity in QUANTITY_NAMES:
            assert np.array_equal(
                run.analysis.pooled(quantity).values, _SERIAL_POOLED[scenario][quantity]
            )

    row = {
        "scenario": scenario,
        "backend": backend,
        "seconds": round(elapsed, 4),
        "n_windows": run.analysis.n_windows,
        "n_packets": get_scenario(scenario).n_packets,
        "max_drift_source_fanout": round(run.phases.max_drift("source_fanout"), 4),
        "engine_stats": dict(run.engine_stats),
    }
    _RESULTS[f"{scenario}/{backend}"] = row


def test_bench_scenarios_artifact(machine_meta, write_artifact):
    """Write the scenario benchmark artifact (runs after the timed cases)."""
    if not _RESULTS:
        pytest.skip("no scenario timings collected in this run")
    report = {
        "benchmark": "scenario_subsystem",
        "n_valid": N_VALID,
        "chunk_packets": CHUNK_PACKETS,
        "seed": SEED,
        "machine": machine_meta(TIMING),
        "cases": _RESULTS,
    }
    artifact = write_artifact("BENCH_scenarios.json", report)
    assert artifact.is_file()
