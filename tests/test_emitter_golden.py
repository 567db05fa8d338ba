"""Golden digests of the raw packets the trace emitters produce.

The scenario and detection goldens pin *derived* vectors (pooled means,
alarm sequences) for a handful of scenarios; this harness pins the packets
themselves.  It records the SHA-256 of ``packets.tobytes()`` for

* every built-in scenario under seeds 0–3, streamed by
  :class:`~repro.scenarios.source.ScenarioTraceSource` as native blocks,
  re-cut with ``chunk_packets=9000``, and with ``block_packets=3000`` (so
  phases span many blocks and cross-fades cross block boundaries); and
* :func:`~repro.streaming.trace_generator.generate_trace_from_graph` over
  every rate model × ``invalid_fraction`` ∈ {0, 0.3} × ``directed``.

A failure here without a deliberate change to the emitter's draw order
usually means a numpy upgrade changed the bit stream behind
``Generator.random``, ``integers`` or ``exponential``.  If a deliberate
change moves these digests, bump ``SPEC_FORMAT_VERSION``, regenerate and
say so in the PR::

    PYTHONPATH=src python tests/test_emitter_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.core.palu_model import PALUParameters
from repro.generators.palu_graph import generate_palu_graph
from repro.scenarios import BUILTIN_SCENARIO_NAMES, get_scenario
from repro.scenarios.source import ScenarioTraceSource
from repro.streaming.trace_generator import TraceConfig, generate_trace_from_graph

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "emitter_packets.json"
SEEDS = tuple(range(4))
SOURCE_VARIANTS = {
    "native": {},
    "chunk9000": {"chunk_packets": 9_000},
    "block3000": {"block_packets": 3_000},
}
GRAPH_SEED = 7
TRACE_SEED = 11
TRACE_PACKETS = 30_000


def _stream_digest(chunks) -> dict:
    digest = hashlib.sha256()
    n_packets = n_chunks = 0
    for chunk in chunks:
        digest.update(chunk.packets.tobytes())
        n_packets += chunk.n_packets
        n_chunks += 1
    return {"sha256": digest.hexdigest(), "n_packets": n_packets, "n_chunks": n_chunks}


def _source_cases() -> dict:
    cases = {}
    for name in BUILTIN_SCENARIO_NAMES:
        for seed in SEEDS:
            for variant, kwargs in SOURCE_VARIANTS.items():
                cases[f"source/{name}/seed{seed}/{variant}"] = (
                    lambda name=name, seed=seed, kwargs=kwargs: _stream_digest(
                        ScenarioTraceSource(get_scenario(name), seed=seed, **kwargs)
                    )
                )
    return cases


def _graph():
    params = PALUParameters.from_weights(0.55, 0.25, 0.20, lam=2.0, alpha=2.0)
    return generate_palu_graph(params, 3_000, rng=GRAPH_SEED)


def _trace_cases() -> dict:
    cases = {}
    for rate_model in ("uniform", "zipf", "lognormal"):
        for invalid_fraction in (0.0, 0.3):
            for directed in (True, False):
                config = TraceConfig(
                    n_packets=TRACE_PACKETS,
                    rate_model=rate_model,
                    invalid_fraction=invalid_fraction,
                    directed=directed,
                )
                cases[f"trace/{rate_model}/invalid{invalid_fraction}/directed{directed}"] = (
                    lambda config=config: _stream_digest(
                        [generate_trace_from_graph(_graph(), config, rng=TRACE_SEED)]
                    )
                )
    return cases


CASES = {**_source_cases(), **_trace_cases()}


@pytest.fixture(scope="module")
def golden() -> dict:
    if not GOLDEN_PATH.is_file():  # pragma: no cover - regeneration guard
        pytest.fail(f"golden file {GOLDEN_PATH} missing; regenerate with "
                    f"'python tests/test_emitter_golden.py --write'")
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)
    assert sum(name.startswith("source/") for name in CASES) == 6 * 4 * 3
    assert sum(name.startswith("trace/") for name in CASES) == 12


@pytest.mark.parametrize("case", sorted(CASES))
def test_emitter_output_matches_golden(golden, case):
    assert CASES[case]() == golden[case], f"{case}: emitted packets moved off their golden digest"


def test_chunking_never_changes_the_packets(golden):
    for name in BUILTIN_SCENARIO_NAMES:
        for seed in SEEDS:
            native = golden[f"source/{name}/seed{seed}/native"]
            chunked = golden[f"source/{name}/seed{seed}/chunk9000"]
            assert native["sha256"] == chunked["sha256"]
            assert native["n_packets"] == chunked["n_packets"]


def _write_golden() -> None:
    snapshot = {name: CASES[name]() for name in sorted(CASES)}
    GOLDEN_PATH.write_text(json.dumps(snapshot, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN_PATH} ({len(snapshot)} cases)")


if __name__ == "__main__":
    if "--write" in sys.argv:
        _write_golden()
    else:
        print(__doc__)
