"""Content-hashed run specifications and the declarative campaign grid.

A *campaign* is a parameter grid — scenarios × seeds × window sizes ×
analysis modes — that expands into concrete :class:`RunSpec` cells, one
per content key.  The **content key** is a SHA-256 fingerprint of every
parameter that determines the cell's *result* (the scenario's full phase
structure, the seed, the window size, the quantities, the generation
block size, the online drift detectors riding the run, and the analysis
mode).  The one execution knob of a cell, its chunk size, is deliberately
**excluded** from the key: chunking bounds memory and never changes the
pooled output, so re-running a grid with a different chunk size warm-hits
every stored cell.  The result store (:mod:`repro.campaigns.store`) is
addressed by this key, which is what makes re-running a campaign skip
completed cells.

The fingerprint is computed over a canonical JSON encoding (sorted keys,
no whitespace, ``repr``-exact floats), so a key is stable across processes
and sessions as long as the parameters are equal.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass
from typing import Iterable, Mapping, Union

from repro._util.validation import check_positive_int
from repro.detect.detectors import DETECTOR_NAMES, get_detector
from repro.scenarios.scenario import Phase, Scenario, get_scenario
from repro.scenarios.source import DEFAULT_BLOCK_PACKETS
from repro.streaming.aggregates import QUANTITY_NAMES
from repro.streaming.pipeline import MODE_NAMES
from repro.streaming.sketch import SketchConfig

__all__ = [
    "SPEC_FORMAT_VERSION",
    "RunSpec",
    "Campaign",
    "content_key",
    "scenario_fingerprint",
]

#: Version woven into every content key; bump on any change to the result
#: semantics (generator draw order, pooling definition, fingerprint layout)
#: so stale store entries can never be mistaken for current ones.
#: v2: the fingerprint gained the ``detectors`` axis (PR 4).
#: v3: the fingerprint gained the ``mode``/``sketch`` axis (PR 6).
#: v4: ``G(n, p)`` draws by geometric skipping at every ``n`` and
#: single-edge preferential attachment samples the copying model, so
#: Erdős–Rényi and ``m_edges = 1`` graphs (``generator-mix``, PA cores) moved.
SPEC_FORMAT_VERSION = 4


def _canonical(payload) -> str:
    """Canonical JSON encoding used for hashing: sorted keys, no whitespace."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def content_key(payload: Mapping) -> str:
    """SHA-256 hex digest of a canonical JSON encoding of *payload*.

    The one hashing primitive shared by run specs and cached experiment rows;
    anything addressable in the result store goes through here.
    """
    digest = hashlib.sha256(_canonical(payload).encode("utf-8"))
    return digest.hexdigest()


def _phase_fingerprint(phase: Phase) -> dict:
    """Result-determining fields of one phase, in canonical form."""
    return {
        "graph": phase.graph,
        "n_packets": int(phase.n_packets),
        "graph_params": {str(k): float(v) for k, v in sorted(phase.graph_params.items())},
        "rate_model": phase.rate_model,
        "rate_exponent": float(phase.rate_exponent),
        "lognormal_sigma": float(phase.lognormal_sigma),
        "invalid_fraction": float(phase.invalid_fraction),
        "mean_interarrival": float(phase.mean_interarrival),
    }


def scenario_fingerprint(scenario: Scenario) -> dict:
    """Result-determining fields of a scenario (its *description* is not one).

    Two scenarios with the same fingerprint generate bit-identical traces for
    any fixed seed, even if they are registered under different names — the
    name is included only because phase attribution reports it; renaming a
    scenario is treated as a new cell.
    """
    return {
        "name": scenario.name,
        "phases": [_phase_fingerprint(phase) for phase in scenario.phases],
        "crossfade_packets": int(scenario.crossfade_packets),
    }


@dataclass(frozen=True)
class RunSpec:
    """One fully-specified scenario run — a single cell of a campaign grid.

    Attributes
    ----------
    scenario:
        The resolved :class:`Scenario` to run (names are resolved at
        campaign construction).
    seed:
        Scenario seed; part of the content key.
    n_valid:
        Window size ``N_V`` in valid packets; part of the content key.
    quantities:
        Figure-1 quantities to analyse; part of the content key.
    block_packets:
        Generation block size.  Part of the content key because the block
        structure is part of the trace's identity (see
        :class:`~repro.scenarios.source.ScenarioTraceSource`).
    detectors:
        Online drift detectors to run alongside the analysis
        (:data:`repro.detect.DETECTOR_NAMES` names; empty = no detection).
        Part of the content key — the stored result carries the alarm
        sequences, so cells with different detector sets hold different
        payloads.  Each detector's *tuning parameters* are hashed too, so
        retuning a default threshold retires stale cached alarms
        mechanically instead of relying on a manual version bump.
    mode:
        Per-window analysis tier, ``"exact"`` or ``"sketch"``.  Part of the
        content key: sketched products are estimates, so an exact cell and
        a sketched cell hold genuinely different results.
    sketch:
        Accuracy knobs of the sketch tier
        (:class:`~repro.streaming.sketch.SketchConfig`); hashed via
        :meth:`~repro.streaming.sketch.SketchConfig.as_key_payload` when
        ``mode="sketch"``, since every knob (including the hash seed)
        changes the estimates.  Must be ``None`` in exact mode.
    chunk_packets:
        Scenario chunk size: the cell's one execution knob.  **Not** part
        of the content key: it bounds the packets buffered at once and
        never changes the result.  Cells always run the serial window
        map; a campaign computes cells in parallel through
        :func:`~repro.campaigns.runner.run_campaign`'s ``pool`` instead.
    """

    scenario: Scenario
    seed: int
    n_valid: int
    quantities: tuple[str, ...] = tuple(QUANTITY_NAMES)
    block_packets: int = DEFAULT_BLOCK_PACKETS
    detectors: tuple[str, ...] = ()
    mode: str = "exact"
    sketch: SketchConfig | None = None
    chunk_packets: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "scenario", get_scenario(self.scenario))
        object.__setattr__(self, "quantities", tuple(self.quantities))
        object.__setattr__(self, "detectors", tuple(self.detectors))
        check_positive_int(self.n_valid, "n_valid")
        check_positive_int(self.block_packets, "block_packets")
        if self.chunk_packets is not None:
            check_positive_int(self.chunk_packets, "chunk_packets")
        if self.mode not in MODE_NAMES:
            raise ValueError(f"unknown mode {self.mode!r}; expected one of {MODE_NAMES}")
        if self.mode == "exact" and self.sketch is not None:
            raise ValueError("a sketch config was supplied but mode is 'exact'")
        if self.mode == "sketch" and self.sketch is None:
            object.__setattr__(self, "sketch", SketchConfig())
        unknown = set(self.quantities) - set(QUANTITY_NAMES)
        if unknown:
            raise ValueError(f"unknown quantities {sorted(unknown)}; valid names: {QUANTITY_NAMES}")
        if len(set(self.quantities)) != len(self.quantities):
            raise ValueError(f"duplicate quantities in {list(self.quantities)}")
        unknown_detectors = set(self.detectors) - set(DETECTOR_NAMES)
        if unknown_detectors:
            raise ValueError(
                f"unknown detectors {sorted(unknown_detectors)}; valid names: {DETECTOR_NAMES}"
            )
        if len(set(self.detectors)) != len(self.detectors):
            raise ValueError(f"duplicate detectors in {list(self.detectors)}")
        # hashed once: the runner and manifests read .key several times per cell
        object.__setattr__(
            self,
            "_key",
            content_key(
                {
                    "kind": "scenario-run",
                    "format": SPEC_FORMAT_VERSION,
                    "scenario": scenario_fingerprint(self.scenario),
                    "seed": int(self.seed),
                    "n_valid": int(self.n_valid),
                    "quantities": list(self.quantities),
                    "block_packets": int(self.block_packets),
                    # names AND tuned parameters: alarms are a function of
                    # both, so a default retune must change the key
                    "detectors": [
                        {
                            "name": name,
                            "params": {
                                k: float(v)
                                for k, v in sorted(get_detector(name).params().items())
                            },
                        }
                        for name in self.detectors
                    ],
                    "mode": self.mode,
                    "sketch": None if self.sketch is None else self.sketch.as_key_payload(),
                }
            ),
        )

    @property
    def key(self) -> str:
        """Content key of this cell's *result* (the chunk size excluded)."""
        return self._key  # type: ignore[attr-defined]

    def as_manifest(self) -> dict:
        """JSON-ready description of the cell (content and execution fields)."""
        return {
            "key": self.key,
            "scenario": self.scenario.name,
            "seed": int(self.seed),
            "n_valid": int(self.n_valid),
            "quantities": list(self.quantities),
            "block_packets": int(self.block_packets),
            "detectors": list(self.detectors),
            "mode": self.mode,
            "sketch": None if self.sketch is None else self.sketch.as_key_payload(),
            "chunk_packets": None if self.chunk_packets is None else int(self.chunk_packets),
        }


@dataclass(frozen=True)
class Campaign:
    """A declarative sweep: the cartesian grid of runs to perform.

    Expansion order is deterministic — ``scenarios × seeds × n_valids ×
    modes``, with the rightmost axis fastest — so two expansions of equal
    campaigns list identical cells in identical order.  Scenario names are
    resolved (and therefore validated) at construction time, like phase
    configs are for scenarios themselves.

    Every axis must list distinct values, so each cell has its own content
    key.  Listing several *modes* multiplies the work: exact and sketched
    results are different payloads, which is exactly what makes an
    accuracy-versus-cost sweep (``modes=("exact", "sketch")``) meaningful.
    """

    name: str
    scenarios: tuple[Union[str, Scenario], ...]
    seeds: tuple[int, ...] = (0,)
    n_valids: tuple[int, ...] = (5_000,)
    quantities: tuple[str, ...] = tuple(QUANTITY_NAMES)
    detectors: tuple[str, ...] = ()
    modes: tuple[str, ...] = ("exact",)
    sketch: SketchConfig | None = None
    chunk_packets: int | None = None
    block_packets: int = DEFAULT_BLOCK_PACKETS
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ValueError("campaign name must be a non-empty string")
        if not self.scenarios:
            raise ValueError(f"campaign {self.name!r} must name at least one scenario")
        if not self.seeds:
            raise ValueError(f"campaign {self.name!r} must have at least one seed")
        if not self.n_valids:
            raise ValueError(f"campaign {self.name!r} must have at least one window size")
        if not self.quantities:
            raise ValueError(f"campaign {self.name!r} must analyse at least one quantity")
        if not self.modes:
            raise ValueError(f"campaign {self.name!r} must name at least one mode")
        for mode in self.modes:
            if mode not in MODE_NAMES:
                raise ValueError(
                    f"campaign {self.name!r} names unknown mode {mode!r}; "
                    f"choose from {list(MODE_NAMES)}"
                )
        if self.sketch is not None and "sketch" not in self.modes:
            raise ValueError(
                f"campaign {self.name!r} configures a sketch but never runs "
                "mode 'sketch'; add it to modes= or drop sketch="
            )
        resolved = tuple(get_scenario(s) for s in self.scenarios)
        object.__setattr__(self, "scenarios", resolved)
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        object.__setattr__(self, "n_valids", tuple(self.n_valids))
        object.__setattr__(self, "quantities", tuple(self.quantities))
        object.__setattr__(self, "detectors", tuple(self.detectors))
        object.__setattr__(self, "modes", tuple(self.modes))
        for axis, values in (
            ("scenarios", [scenario.name for scenario in self.scenarios]),
            ("seeds", self.seeds),
            ("n_valids", self.n_valids),
            ("modes", self.modes),
        ):
            if len(set(values)) != len(values):
                raise ValueError(
                    f"campaign {self.name!r} repeats a value on its {axis} axis "
                    f"({list(values)}); list each value once"
                )
        # expand (and thereby validate) the grid once; cells() serves this
        # tuple so repeated expansion never re-validates or re-hashes
        object.__setattr__(self, "_cells", tuple(self._iter_cells()))

    def _iter_cells(self) -> Iterable[RunSpec]:
        for scenario, seed, n_valid, mode in itertools.product(
            self.scenarios, self.seeds, self.n_valids, self.modes
        ):
            yield RunSpec(
                scenario=scenario,
                seed=seed,
                n_valid=n_valid,
                quantities=self.quantities,
                block_packets=self.block_packets,
                detectors=self.detectors,
                mode=mode,
                sketch=self.sketch if mode == "sketch" else None,
                chunk_packets=self.chunk_packets,
            )

    def cells(self) -> tuple[RunSpec, ...]:
        """The grid's concrete cells, in deterministic expansion order."""
        return self._cells  # type: ignore[attr-defined]

    @property
    def n_cells(self) -> int:
        """Number of grid cells (one per content key)."""
        return len(self.cells())

    def as_manifest(self) -> dict:
        """JSON-ready description of the campaign and its expanded cells."""
        return {
            "name": self.name,
            "description": self.description,
            "n_cells": self.n_cells,
            "cells": [spec.as_manifest() for spec in self.cells()],
        }
