"""Sketch payloads through the content-addressed result store.

Sketch-mode campaign cells persist a :class:`~repro.scenarios.run.ScenarioRun`
whose analysis carries a merged :class:`~repro.streaming.sketch.WindowSketch`
and its error bounds.  These tests pin the storage contract for that payload:

* the sketch round-trips the store bit-identically (pickle + gzip with
  ``mtime=0``),
* recomputing the same cell serializes to the **same payload digest** —
  the store's files are as content-addressed as its keys, sketch included,
* a torn or corrupted sketch payload reads as *missing* and a resuming
  campaign recomputes it, never crashes on it.
"""

from __future__ import annotations

import pytest

from repro.campaigns.runner import run_campaign
from repro.campaigns.spec import Campaign
from repro.campaigns.store import ResultStore
from repro.scenarios import analyze_scenario


def _sketch_campaign() -> Campaign:
    return Campaign(
        name="sketchy",
        scenarios=("stationary",),
        seeds=(0,),
        n_valids=(400,),
        modes=("sketch",),
        detectors=("ewma",),
    )


@pytest.fixture()
def populated(tmp_path):
    campaign = _sketch_campaign()
    run = run_campaign(campaign, tmp_path)
    assert run.n_computed == 1
    (spec,) = campaign.cells()
    return ResultStore(tmp_path), spec


class TestSketchRoundTrip:
    def test_sketch_and_bounds_survive_the_store(self, populated):
        store, spec = populated
        loaded = store.get(spec.key)
        assert loaded.analysis.mode == "sketch"
        fresh = analyze_scenario(
            spec.scenario, spec.n_valid, seed=spec.seed, detectors=spec.detectors,
            keep_windows=False, mode="sketch", sketch=spec.sketch,
        )
        assert loaded.analysis.sketch == fresh.analysis.sketch
        assert loaded.analysis.bounds == fresh.analysis.bounds
        assert loaded.detection.alarms == fresh.detection.alarms

    def test_payload_digest_is_stable_across_independent_runs(self, tmp_path):
        """Same cell, two cold computations -> byte-identical stored payload."""
        digests = []
        for sub in ("a", "b"):
            campaign = _sketch_campaign()
            run_campaign(campaign, tmp_path / sub)
            (spec,) = campaign.cells()
            record = ResultStore(tmp_path / sub).record(spec.key)
            digests.append((spec.key, record["payload_sha256"]))
        assert digests[0] == digests[1]

    def test_exact_and_sketch_cells_never_share_a_key(self, tmp_path):
        campaign = Campaign(
            name="both", scenarios=("stationary",), n_valids=(400,),
            modes=("exact", "sketch"),
        )
        keys = {cell.key for cell in campaign.cells()}
        assert len(keys) == 2


class TestTornSketchPayloads:
    def test_truncated_payload_reads_missing_and_resume_recomputes(self, populated):
        store, spec = populated
        path = store._object_path(spec.key)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])

        fresh_store = ResultStore(store.root)  # new instance: no verify cache
        assert spec.key not in fresh_store
        with pytest.raises(KeyError):
            fresh_store.get(spec.key)

        resumed = run_campaign(_sketch_campaign(), store.root)
        assert resumed.n_computed == 1  # the torn cell was recomputed
        assert ResultStore(store.root).get(spec.key).analysis.mode == "sketch"

    def test_same_size_corruption_is_caught_by_the_digest(self, populated):
        store, spec = populated
        path = store._object_path(spec.key)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        assert spec.key not in ResultStore(store.root)
