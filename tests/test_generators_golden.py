"""Golden digests of the graph generators' output.

Every scenario phase builds its underlying network through
:func:`repro.scenarios.families.build_family_edges`, and the campaign
content keys assume that a given ``(family, params, seed)`` always yields
the same edge array.  This harness pins the SHA-256 of the edge-array bytes
(with shape and dtype) for

* every phase of every built-in scenario under seeds 0–7, and
* an edge-case grid: PALU without unattached stars, with ``λ = 0``, with a
  core of fewer than two nodes and with the preferential-attachment core;
  preferential attachment with ``m_edges`` ∈ {1, 2, 3}; and Erdős–Rényi
  with ``p`` ∈ {0, 1} and at 800, 3,000 and 5,000 nodes.  (``er/dense``
  and ``er/dense-limit`` are named after a per-pair draw that ``G(n, p)``
  no longer has.)

It also pins the node order and the adjacency (hence ``edges()``) order of
the ``networkx`` graphs handed to the graph-sampling experiments.  A failure
here without a deliberate generator change usually means a numpy upgrade
changed the bit stream behind ``Generator.random``, ``geometric``,
``choice`` or ``shuffle``.  Preferential attachment with ``m_edges > 1``
replays ``choice`` on top of ``random``;
``tests/test_generators_pa_and_palu.py`` keeps that replay in step with the
library, and holds the ``m_edges = 1`` copying model to the dense kernel's
law.

The file records the ``SPEC_FORMAT_VERSION`` it was written under
(``tests/_golden_version.py``).  A digest that moves at that version fails
with a "bump SPEC_FORMAT_VERSION" message, because campaign content keys
would otherwise serve cells computed by the old generators.  After a
deliberate change, bump the version, regenerate (``--write`` refuses at an
unchanged version) and list the moved cases::

    PYTHONPATH=src python tests/test_generators_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import _golden_version as golden_version
from repro.campaigns.spec import SPEC_FORMAT_VERSION
from repro.core.palu_model import PALUParameters
from repro.generators.erdos_renyi import erdos_renyi_edges
from repro.generators.palu_graph import generate_palu_graph
from repro.generators.preferential_attachment import generate_shifted_preferential_attachment
from repro.scenarios import BUILTIN_SCENARIO_NAMES, get_scenario
from repro.scenarios.families import build_family_edges

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "generator_edges.json"
SCRIPT = "tests/test_generators_golden.py"
SEEDS = tuple(range(8))
GRID_SEEDS = (0, 1)

_DEFAULT = PALUParameters.from_weights(0.55, 0.25, 0.20, lam=2.0, alpha=2.0)
_PA_CORE = PALUParameters.from_weights(0.55, 0.25, 0.20, lam=2.0, alpha=2.5)


def _digest(edges: np.ndarray) -> dict:
    return {
        "sha256": hashlib.sha256(np.ascontiguousarray(edges).tobytes()).hexdigest(),
        "shape": list(edges.shape),
        "dtype": edges.dtype.str,
    }


def _graph_digest(graph) -> dict:
    """Node order, adjacency order and ``edges()`` order of a networkx graph."""
    adjacency = json.dumps([[int(u), [int(v) for v in nbrs]] for u, nbrs in graph.adj.items()])
    edges = np.asarray(list(graph.edges()), dtype=np.int64).reshape(-1, 2)
    return {
        "n_nodes": graph.number_of_nodes(),
        "adjacency_sha256": hashlib.sha256(adjacency.encode()).hexdigest(),
        "edges": _digest(edges),
    }


def _phase_cases() -> dict:
    cases = {}
    for name in BUILTIN_SCENARIO_NAMES:
        for index, phase in enumerate(get_scenario(name).phases):
            for seed in SEEDS:
                cases[f"phase/{name}/{index}/seed{seed}"] = (
                    lambda phase=phase, seed=seed: _digest(
                        build_family_edges(phase.graph, phase.graph_params, np.random.default_rng(seed))
                    )
                )
    return cases


def _palu_edges(params: PALUParameters, n_nodes: int, **kwargs):
    return lambda seed: _digest(generate_palu_graph(params, n_nodes, rng=seed, **kwargs).edges_array())


def _pa_edges(m_edges: int, alpha: float):
    params = {"n_nodes": 1_500, "m_edges": m_edges, "alpha": alpha}
    return lambda seed: _digest(
        build_family_edges("preferential-attachment", params, np.random.default_rng(seed))
    )


def _er_edges(n_nodes: int, p: float):
    return lambda seed: _digest(erdos_renyi_edges(n_nodes, p, rng=seed))


_GRID = {
    "palu/unattached0": _palu_edges(
        PALUParameters.from_weights(0.7, 0.3, 0.0, lam=2.0, alpha=2.0), 3_000
    ),
    "palu/lam0": _palu_edges(PALUParameters(0.6, 0.4, 0.3, lam=0.0, alpha=2.0), 2_000),
    # round(C * 10) = 1 and 0: the core is too small to wire
    "palu/n10-core1": _palu_edges(PALUParameters.from_weights(0.1, 0.5, 0.4, lam=2.0, alpha=2.0), 10),
    "palu/n10-core0": _palu_edges(PALUParameters.from_weights(0.0, 0.6, 0.4, lam=2.0, alpha=2.0), 10),
    "palu/pa-core": _palu_edges(_PA_CORE, 2_000, core_model="preferential-attachment"),
    "pa/m1": _pa_edges(1, 2.5),
    "pa/m2": _pa_edges(2, 2.5),
    "pa/m3": _pa_edges(3, 2.2),
    "pa/m2-positive-shift": _pa_edges(2, 3.5),
    "configuration/heavy": lambda seed: _digest(
        build_family_edges(
            "configuration", {"n_nodes": 3_000, "alpha": 1.7, "dmax": 3_000}, np.random.default_rng(seed)
        )
    ),
    "er/dense-p0": _er_edges(500, 0.0),
    "er/dense-p1": _er_edges(300, 1.0),
    "er/dense": _er_edges(800, 0.01),
    "er/dense-limit": _er_edges(3_000, 0.002),
    "er/sparse": _er_edges(5_000, 0.0008),
    "graph/palu": lambda seed: _graph_digest(generate_palu_graph(_DEFAULT, 3_000, rng=seed).graph),
    "graph/palu-pa-core": lambda seed: _graph_digest(
        generate_palu_graph(_PA_CORE, 2_000, core_model="preferential-attachment", rng=seed).graph
    ),
    "graph/palu-n10": lambda seed: _graph_digest(
        generate_palu_graph(PALUParameters.from_weights(0.1, 0.5, 0.4, lam=2.0, alpha=2.0), 10, rng=seed).graph
    ),
    "graph/pa-m1": lambda seed: _graph_digest(
        generate_shifted_preferential_attachment(1_000, 1, alpha=2.5, rng=seed)
    ),
    "graph/pa-m2": lambda seed: _graph_digest(
        generate_shifted_preferential_attachment(1_000, 2, alpha=2.5, rng=seed)
    ),
    "graph/pa-m3": lambda seed: _graph_digest(
        generate_shifted_preferential_attachment(1_000, 3, shift=0.5, rng=seed)
    ),
}


def _cases() -> dict:
    cases = _phase_cases()
    for name, build in _GRID.items():
        for seed in GRID_SEEDS:
            cases[f"{name}/seed{seed}"] = lambda build=build, seed=seed: build(seed)
    return cases


CASES = _cases()


@pytest.fixture(scope="module")
def recorded() -> tuple[int, dict]:
    return golden_version.load(GOLDEN_PATH, SCRIPT)


@pytest.fixture(scope="module")
def golden(recorded) -> dict:
    return recorded[1]


def test_golden_was_recorded_under_a_current_version(recorded):
    assert recorded[0] <= SPEC_FORMAT_VERSION


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)
    # 17 built-in phases x 8 seeds
    assert sum(name.startswith("phase/") for name in CASES) == 136


@pytest.mark.parametrize("case", sorted(CASES))
def test_generator_output_matches_golden(recorded, case):
    version, golden = recorded
    assert CASES[case]() == golden[case], golden_version.mismatch_message(case, version, SCRIPT)


def _recorded_file(tmp_path, version: int, digests: dict) -> Path:
    path = tmp_path / "golden.json"
    path.write_text(json.dumps({golden_version.VERSION_KEY: version, **digests}), encoding="utf-8")
    return path


def test_moved_digest_at_the_recorded_version_asks_for_a_bump():
    message = golden_version.mismatch_message("pa/m1/seed0", SPEC_FORMAT_VERSION, SCRIPT)
    assert "bump SPEC_FORMAT_VERSION" in message
    assert "bump" not in golden_version.mismatch_message("pa/m1/seed0", SPEC_FORMAT_VERSION - 1, SCRIPT)


def test_write_refuses_a_moved_digest_at_an_unchanged_version(tmp_path):
    path = _recorded_file(tmp_path, SPEC_FORMAT_VERSION, {"a": {"sha256": "old"}})
    before = path.read_text(encoding="utf-8")
    assert golden_version.write(path, {"a": lambda: {"sha256": "new"}}, SCRIPT) == 1
    assert path.read_text(encoding="utf-8") == before


def test_write_records_new_cases_and_moves_under_a_bumped_version(tmp_path):
    path = _recorded_file(tmp_path, SPEC_FORMAT_VERSION, {"a": {"sha256": "same"}})
    cases = {"a": lambda: {"sha256": "same"}, "b": lambda: {"sha256": "added"}}
    assert golden_version.write(path, cases, SCRIPT) == 0
    assert golden_version.load(path, SCRIPT) == (
        SPEC_FORMAT_VERSION, {"a": {"sha256": "same"}, "b": {"sha256": "added"}}
    )
    path = _recorded_file(tmp_path, SPEC_FORMAT_VERSION - 1, {"a": {"sha256": "old"}})
    assert golden_version.write(path, {"a": lambda: {"sha256": "new"}}, SCRIPT) == 0
    assert golden_version.load(path, SCRIPT) == (SPEC_FORMAT_VERSION, {"a": {"sha256": "new"}})


if __name__ == "__main__":
    if "--write" in sys.argv:
        sys.exit(golden_version.write(GOLDEN_PATH, CASES, SCRIPT))
    print(__doc__)
