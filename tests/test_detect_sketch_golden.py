"""Golden-file regression tests: detector alarms on *sketched* histograms.

Detection is tier-agnostic — detectors score pooled vectors, never raw
windows — so running a scenario with ``mode="sketch"`` feeds the same
detector arithmetic the sketch-estimated histograms.  For a fixed scenario
seed **and** sketch seed the sketched histograms are deterministic, so the
alarm sequences are pinned here exactly like the exact-tier goldens in
``tests/test_detect_golden.py``, and the serial, process, and chunked-serial
backends must all reproduce them bit-identically (the sketch fold is a
commutative monoid merge, so backend and chunking never leak in).

If a deliberate change moves these sequences — retuned detectors, a new
sketch hash, different default tables — regenerate and say so in the PR::

    PYTHONPATH=src python tests/test_detect_sketch_golden.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.detect import DETECTOR_NAMES
from repro.detect.evaluate import true_change_windows
from repro.scenarios import analyze_scenario
from repro.streaming.sketch import DEFAULT_SKETCH_CONFIG

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
SEED = 20210329
N_VALID = 2_000
GOLDEN_SCENARIOS = ("alpha-drift", "flash-crowd")
#: ``serial-chunked`` is the serial backend fed 9,000-packet chunks: the
#: chunking-invariance entry.
BACKENDS = ("serial", "process", "serial-chunked")


def _golden_path(name: str) -> Path:
    return GOLDEN_DIR / f"detect_sketch_{name.replace('-', '_')}.json"


def _run(name: str, backend: str):
    kwargs = {
        "backend": backend,
        "keep_windows": False,
        "detectors": DETECTOR_NAMES,
        "mode": "sketch",
    }
    if backend == "process":
        kwargs["n_workers"] = 2
    if backend == "serial-chunked":
        kwargs.update(backend="serial", chunk_packets=9_000)
    return analyze_scenario(name, N_VALID, seed=SEED, **kwargs)


def _snapshot(run) -> dict:
    """The pinned products: per-detector alarms + the sketch that fed them."""
    return {
        "seed": SEED,
        "n_valid": N_VALID,
        "sketch": DEFAULT_SKETCH_CONFIG.as_key_payload(),
        "n_windows": run.detection.n_windows,
        "quantity": run.detection.quantity,
        "true_boundaries": list(true_change_windows(run.phases.window_phase)),
        "alarms": {name: list(run.detection.alarms[name]) for name in DETECTOR_NAMES},
    }


@pytest.fixture(scope="module", params=GOLDEN_SCENARIOS)
def golden_case(request):
    path = _golden_path(request.param)
    if not path.is_file():  # pragma: no cover - regeneration guard
        pytest.fail(f"golden file {path} missing; regenerate with "
                    f"'python tests/test_detect_sketch_golden.py --write'")
    return request.param, json.loads(path.read_text(encoding="utf-8"))


def test_goldens_pin_the_default_sketch_config():
    """The pins are only comparable while the default knobs stand still."""
    for name in GOLDEN_SCENARIOS:
        golden = json.loads(_golden_path(name).read_text(encoding="utf-8"))
        assert golden["sketch"] == DEFAULT_SKETCH_CONFIG.as_key_payload(), (
            "default SketchConfig changed; regenerate the sketch detect goldens"
        )


@pytest.mark.parametrize("backend", BACKENDS)
def test_backend_reproduces_golden_sketch_alarms(golden_case, backend):
    name, golden = golden_case
    run = _run(name, backend)
    assert run.analysis.mode == "sketch"
    assert run.detection.n_windows == golden["n_windows"]
    assert run.detection.quantity == golden["quantity"]
    assert list(true_change_windows(run.phases.window_phase)) == golden["true_boundaries"]
    for detector in DETECTOR_NAMES:
        assert list(run.detection.alarms[detector]) == golden["alarms"][detector], (
            f"{name}/{backend}/{detector}: sketched alarm sequence moved off the pin"
        )


def test_sketched_alarms_still_detect_something():
    """The sketch tier must not blind the detectors: >= 1 alarm per scenario."""
    for name in GOLDEN_SCENARIOS:
        golden = json.loads(_golden_path(name).read_text(encoding="utf-8"))
        assert golden["true_boundaries"], name
        assert any(golden["alarms"][d] for d in DETECTOR_NAMES), (
            f"{name}: no detector alarmed on sketched histograms"
        )


def _write_goldens() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in GOLDEN_SCENARIOS:
        snapshot = _snapshot(_run(name, "serial"))
        path = _golden_path(name)
        path.write_text(json.dumps(snapshot, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {path} ({snapshot['alarms']})")


if __name__ == "__main__":
    if "--write" in sys.argv:
        _write_goldens()
    else:
        print(__doc__)
