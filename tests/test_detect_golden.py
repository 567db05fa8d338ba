"""Golden-file regression tests: pinned detector alarm sequences.

For the ``alpha-drift`` and ``flash-crowd`` scenarios under a fixed seed,
the alarm sequence of every built-in detector (and the run's true
phase-boundary windows) is pinned in ``tests/golden/detect_*.json``, and
the serial, process, and chunked-serial runs must all reproduce it
**exactly** — alarm indices are integers, so equality is exact by
construction; what the pin buys is catching any change to the detector
arithmetic, the distance statistic, the tuned defaults, or the generator's
draw order.

If a deliberate change moves these sequences, regenerate the goldens and
say so in the PR::

    PYTHONPATH=src python tests/test_detect_golden.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.detect import DETECTOR_NAMES
from repro.detect.evaluate import true_change_windows
from repro.scenarios import analyze_scenario

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
SEED = 20210329
N_VALID = 2_000
GOLDEN_SCENARIOS = ("alpha-drift", "flash-crowd")
#: ``serial-chunked`` is the serial backend fed 9,000-packet chunks: the
#: chunking-invariance entry.
BACKENDS = ("serial", "process", "serial-chunked")


def _golden_path(name: str) -> Path:
    return GOLDEN_DIR / f"detect_{name.replace('-', '_')}.json"


def _run(name: str, backend: str):
    kwargs = {"backend": backend, "keep_windows": False, "detectors": DETECTOR_NAMES}
    if backend == "process":
        kwargs["n_workers"] = 2
    if backend == "serial-chunked":
        kwargs.update(backend="serial", chunk_packets=9_000)
    return analyze_scenario(name, N_VALID, seed=SEED, **kwargs)


def _snapshot(run) -> dict:
    """The pinned products: per-detector alarms + the ground truth they chase."""
    return {
        "seed": SEED,
        "n_valid": N_VALID,
        "n_windows": run.detection.n_windows,
        "quantity": run.detection.quantity,
        "true_boundaries": list(true_change_windows(run.phases.window_phase)),
        "alarms": {name: list(run.detection.alarms[name]) for name in DETECTOR_NAMES},
        "params": {name: run.detection.params[name] for name in DETECTOR_NAMES},
    }


@pytest.fixture(scope="module", params=GOLDEN_SCENARIOS)
def golden_case(request):
    path = _golden_path(request.param)
    if not path.is_file():  # pragma: no cover - regeneration guard
        pytest.fail(f"golden file {path} missing; regenerate with "
                    f"'python tests/test_detect_golden.py --write'")
    return request.param, json.loads(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("backend", BACKENDS)
def test_backend_reproduces_golden_alarms(golden_case, backend):
    name, golden = golden_case
    run = _run(name, backend)
    assert run.detection.n_windows == golden["n_windows"]
    assert run.detection.quantity == golden["quantity"]
    assert list(true_change_windows(run.phases.window_phase)) == golden["true_boundaries"]
    for detector in DETECTOR_NAMES:
        assert list(run.detection.alarms[detector]) == golden["alarms"][detector], (
            f"{name}/{backend}/{detector}: alarm sequence moved off the golden pin"
        )


def test_golden_params_match_current_defaults():
    """A silent change to the tuned defaults must fail loudly, not drift."""
    from repro.detect import get_detector

    for name in GOLDEN_SCENARIOS:
        golden = json.loads(_golden_path(name).read_text(encoding="utf-8"))
        for detector in DETECTOR_NAMES:
            assert golden["params"][detector] == dict(get_detector(detector).params()), (
                f"detector {detector} defaults changed; regenerate the detect goldens"
            )


def test_goldens_pin_detections_not_silence():
    """Every pinned scenario has boundaries, and every detector detects ≥1."""
    for name in GOLDEN_SCENARIOS:
        golden = json.loads(_golden_path(name).read_text(encoding="utf-8"))
        assert golden["true_boundaries"], name
        for detector in DETECTOR_NAMES:
            assert golden["alarms"][detector], f"{name}/{detector} pinned no alarms"


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
