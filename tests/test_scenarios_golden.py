"""Golden-file regression tests: pinned pooled vectors for two scenarios.

Extends the backend-equivalence coverage of ``test_streaming_engine.py`` to
*non-stationary* input: for the ``stationary`` and ``alpha-drift`` scenarios
under a fixed seed, the pooled mean/σ vectors (and the window→phase
attribution) are pinned in ``tests/golden/scenario_*.json``, and the serial,
process, and chunked-serial runs must all reproduce them **bit-identically**
— JSON stores Python float ``repr``\\ s, which round-trip float64 exactly,
so equality here is equality of bits, not of approximations.

If a deliberate change to the generator's draw order, the built-in
catalogue, or the pooling fold moves these vectors, regenerate the goldens
and say so in the PR::

    PYTHONPATH=src python tests/test_scenarios_golden.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.scenarios import analyze_scenario
from repro.streaming.aggregates import QUANTITY_NAMES

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
SEED = 20210329
N_VALID = 5_000
GOLDEN_SCENARIOS = ("stationary", "alpha-drift")
#: ``serial-chunked`` is the serial backend fed 9,000-packet chunks: the
#: chunking-invariance entry.
BACKENDS = ("serial", "process", "serial-chunked")


def _golden_path(name: str) -> Path:
    return GOLDEN_DIR / f"scenario_{name.replace('-', '_')}.json"


def _run(name: str, backend: str):
    kwargs = {"backend": backend, "keep_windows": False}
    if backend == "process":
        kwargs["n_workers"] = 2
    if backend == "serial-chunked":
        kwargs.update(backend="serial", chunk_packets=9_000)
    return analyze_scenario(name, N_VALID, seed=SEED, **kwargs)


def _snapshot(run) -> dict:
    """The pinned products: global pooled mean/σ per quantity + attribution."""
    pooled = {}
    for quantity in QUANTITY_NAMES:
        dist = run.analysis.pooled(quantity)
        pooled[quantity] = {
            "values": dist.values.tolist(),
            "sigma": dist.sigma.tolist(),
            "total": int(dist.total),
        }
    phase_head = {
        str(phase): run.phases.pooled(phase, "source_fanout").values.tolist()
        for phase in run.phases.occupied_phases()
    }
    return {
        "seed": SEED,
        "n_valid": N_VALID,
        "n_windows": run.analysis.n_windows,
        "window_phase": run.phases.window_phase.tolist(),
        "pooled": pooled,
        "phase_source_fanout": phase_head,
    }


@pytest.fixture(scope="module", params=GOLDEN_SCENARIOS)
def golden_case(request):
    path = _golden_path(request.param)
    if not path.is_file():  # pragma: no cover - regeneration guard
        pytest.fail(f"golden file {path} missing; regenerate with "
                    f"'python tests/test_scenarios_golden.py --write'")
    return request.param, json.loads(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("backend", BACKENDS)
def test_backend_reproduces_golden_bit_identically(golden_case, backend):
    name, golden = golden_case
    run = _run(name, backend)
    assert run.analysis.n_windows == golden["n_windows"]
    np.testing.assert_array_equal(run.phases.window_phase, golden["window_phase"])
    for quantity in QUANTITY_NAMES:
        pinned = golden["pooled"][quantity]
        pooled = run.analysis.pooled(quantity)
        # bit-identical: JSON floats round-trip exactly, so plain equality
        assert pooled.values.tolist() == pinned["values"], (
            f"{name}/{backend}/{quantity}: pooled mean moved off the golden vector"
        )
        assert pooled.sigma.tolist() == pinned["sigma"], (
            f"{name}/{backend}/{quantity}: pooled σ moved off the golden vector"
        )
        assert pooled.total == pinned["total"]
    for phase, values in golden["phase_source_fanout"].items():
        assert run.phases.pooled(int(phase), "source_fanout").values.tolist() == values


def test_goldens_cover_both_regimes():
    """The pinned pair spans the stationarity axis: one single-phase control,
    one multi-phase drift scenario with a non-trivial attribution."""
    stationary = json.loads(_golden_path("stationary").read_text(encoding="utf-8"))
    drift = json.loads(_golden_path("alpha-drift").read_text(encoding="utf-8"))
    assert set(stationary["window_phase"]) == {0}
    assert len(set(drift["window_phase"])) > 1


def _write_goldens() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in GOLDEN_SCENARIOS:
        snapshot = _snapshot(_run(name, "serial"))
        path = _golden_path(name)
        path.write_text(json.dumps(snapshot, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {path} ({snapshot['n_windows']} windows)")


if __name__ == "__main__":
    if "--write" in sys.argv:
        _write_goldens()
    else:
        print(__doc__)
