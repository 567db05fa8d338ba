"""Benchmark — online drift detection overhead over plain analysis.

Times :func:`repro.scenarios.analyze_scenario` with and without the full
detector set riding the fold, on the scenario-subsystem reference grid
(``N_V = 5000``, unchunked and chunked serial runs — the chunked rows
keep their old ``streaming`` label), and writes a
``BENCH_detection.json`` artifact recording the per-case seconds and the
aggregate overhead ratio.  The acceptance contract — detection costs at
most 25% over plain analysis — is asserted here on min-of-N timings (the
detectors add one O(bins) scalar fold per window, so the observed overhead
is a few percent; the generous bound absorbs timer noise, not real cost).
"""

from __future__ import annotations

import json
import time

import pytest

from repro.detect import DETECTOR_NAMES
from repro.scenarios import analyze_scenario, get_scenario

# 24 full N_V=5000 scenario analyses — deselected by `pytest -m "not slow"` (fast local loop)
pytestmark = pytest.mark.slow

SEED = 20210329
N_VALID = 5_000
CHUNK_PACKETS = 10_000
SCENARIOS = ("stationary", "alpha-drift")
BACKENDS = ("serial", "streaming")
ROUNDS = 3
MAX_OVERHEAD_RATIO = 1.25

_RESULTS: dict[str, dict] = {}


def _run(scenario: str, backend: str, detectors):
    kwargs = {"backend": backend, "keep_windows": False, "detectors": detectors}
    if backend == "streaming":
        kwargs.update(backend="serial", chunk_packets=CHUNK_PACKETS)
    return analyze_scenario(scenario, N_VALID, seed=SEED, **kwargs)


def _best_of(scenario: str, backend: str, detectors) -> tuple[float, object]:
    best = float("inf")
    run = None
    for _ in range(ROUNDS):
        start = time.perf_counter()
        run = _run(scenario, backend, detectors)
        best = min(best, time.perf_counter() - start)
    return best, run


@pytest.fixture(scope="module", autouse=True)
def _warm_engine():
    """One throwaway run so the first timed case does not absorb one-time
    costs (imports, numpy init)."""
    _run(SCENARIOS[0], "serial", None)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_bench_detection_overhead(benchmark, scenario, backend):
    plain_seconds, plain = _best_of(scenario, backend, None)

    def detecting():
        return _run(scenario, backend, DETECTOR_NAMES)

    start = time.perf_counter()
    run = benchmark.pedantic(detecting, rounds=1, iterations=1)
    first = time.perf_counter() - start
    detect_seconds = first
    for _ in range(ROUNDS - 1):
        start = time.perf_counter()
        _run(scenario, backend, DETECTOR_NAMES)
        detect_seconds = min(detect_seconds, time.perf_counter() - start)

    assert run.detection is not None
    assert run.analysis == plain.analysis  # detection never perturbs analysis

    row = {
        "scenario": scenario,
        "backend": backend,
        "n_packets": get_scenario(scenario).n_packets,
        "n_windows": run.analysis.n_windows,
        "plain_seconds": round(plain_seconds, 4),
        "detect_seconds": round(detect_seconds, 4),
        "overhead_ratio": round(detect_seconds / plain_seconds, 4),
        "alarms": {name: list(run.detection.alarms[name]) for name in DETECTOR_NAMES},
    }
    _RESULTS[f"{scenario}/{backend}"] = row
    benchmark.extra_info["rows"] = [json.loads(json.dumps(row, default=str))]


def test_bench_detection_artifact(machine_meta, write_artifact):
    """Aggregate, assert the ≤25% overhead contract, write the artifact."""
    if not _RESULTS:
        pytest.skip("no detection timings collected in this run")
    plain_total = sum(row["plain_seconds"] for row in _RESULTS.values())
    detect_total = sum(row["detect_seconds"] for row in _RESULTS.values())
    overall = detect_total / plain_total
    report = {
        "benchmark": "detection_overhead",
        "n_valid": N_VALID,
        "chunk_packets": CHUNK_PACKETS,
        "seed": SEED,
        "detectors": list(DETECTOR_NAMES),
        "max_overhead_ratio": MAX_OVERHEAD_RATIO,
        "overall_overhead_ratio": round(overall, 4),
        "machine": machine_meta("best-of-1 wall clock (time.perf_counter), rounds=1"),
        "cases": _RESULTS,
    }
    write_artifact("BENCH_detection.json", report)
    assert overall <= MAX_OVERHEAD_RATIO, (
        f"detection overhead {overall:.3f}× exceeds the {MAX_OVERHEAD_RATIO}× contract"
    )
