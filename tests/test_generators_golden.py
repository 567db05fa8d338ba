"""Golden digests of the graph generators' output.

Every scenario phase builds its underlying network through
:func:`repro.scenarios.families.build_family_edges`, and the campaign
content keys assume that a given ``(family, params, seed)`` always yields
the same edge array.  This harness pins the SHA-256 of the edge-array bytes
(with shape and dtype) for

* every phase of every built-in scenario under seeds 0–7, and
* an edge-case grid: PALU without unattached stars, with ``λ = 0``, with a
  core of fewer than two nodes and with the preferential-attachment core;
  preferential attachment with ``m_edges`` ∈ {1, 2, 3}; and Erdős–Rényi on
  the dense path (including ``p`` ∈ {0, 1}) and the sparse path.

It also pins the node order and the adjacency (hence ``edges()``) order of
the ``networkx`` graphs handed to the graph-sampling experiments.  A failure
here without a deliberate generator change usually means a numpy upgrade
changed the bit stream behind ``Generator.random``, ``choice`` or
``shuffle``.  Preferential attachment replays ``choice`` on top of
``random``; ``tests/test_generators_pa_and_palu.py`` keeps that replay in
step with the library.  If a
deliberate change moves these digests, bump ``SPEC_FORMAT_VERSION``,
regenerate and say so in the PR::

    PYTHONPATH=src python tests/test_generators_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.palu_model import PALUParameters
from repro.generators.erdos_renyi import erdos_renyi_edges
from repro.generators.palu_graph import generate_palu_graph
from repro.generators.preferential_attachment import generate_shifted_preferential_attachment
from repro.scenarios import BUILTIN_SCENARIO_NAMES, get_scenario
from repro.scenarios.families import build_family_edges

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "generator_edges.json"
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
def golden() -> dict:
    if not GOLDEN_PATH.is_file():  # pragma: no cover - regeneration guard
        pytest.fail(f"golden file {GOLDEN_PATH} missing; regenerate with "
                    f"'python tests/test_generators_golden.py --write'")
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)
    # 17 built-in phases x 8 seeds
    assert sum(name.startswith("phase/") for name in CASES) == 136


@pytest.mark.parametrize("case", sorted(CASES))
def test_generator_output_matches_golden(golden, case):
    assert CASES[case]() == golden[case], (
        f"{case}: generator output moved off its golden digest"
    )


def _write_golden() -> None:
    snapshot = {name: CASES[name]() for name in sorted(CASES)}
    GOLDEN_PATH.write_text(json.dumps(snapshot, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN_PATH} ({len(snapshot)} cases)")


if __name__ == "__main__":
    if "--write" in sys.argv:
        _write_golden()
    else:
        print(__doc__)
