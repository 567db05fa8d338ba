"""Tests for the campaign orchestrator and the content-addressed result store.

The determinism contract under test: a cell loaded warm from the store is
**bit-identical** to the same cell recomputed cold — pooled values, sigmas,
per-phase products, everything — and therefore re-running a campaign is a
pure cache sweep (0 recomputed cells, byte-identical report text), and an
interrupted sweep resumes with exactly the missing cells.
"""

from __future__ import annotations

import dataclasses
import gzip
import tempfile

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.campaigns.runner as runner_module
from repro.campaigns import (
    Campaign,
    CampaignReport,
    ResultStore,
    RunSpec,
    content_key,
    fleet_status_rows,
    run_campaign,
    scenario_fingerprint,
)
from repro.cli import main
from repro.scenarios import Phase, Scenario, analyze_scenario

#: A tiny two-phase scenario so every campaign test runs in well under a second.
TINY = Scenario(
    "tiny-campaign-test",
    phases=(
        Phase("erdos-renyi", 6_000, {"n_nodes": 400, "p": 0.02}),
        Phase("palu", 6_000, {"n_nodes": 500, "alpha": 2.2}, rate_exponent=1.4),
    ),
    description="test-only miniature workload",
)

#: Single-phase variant for multi-scenario grids.
TINY_FLAT = Scenario(
    "tiny-campaign-flat",
    phases=(Phase("erdos-renyi", 8_000, {"n_nodes": 400, "p": 0.02}),),
)

QUANTITIES = ("source_fanout", "link_packets")


def tiny_campaign(name="tiny", **overrides) -> Campaign:
    settings = {
        "scenarios": (TINY, TINY_FLAT),
        "seeds": (0, 1),
        "n_valids": (1_000,),
        "quantities": QUANTITIES,
    }
    settings.update(overrides)
    return Campaign(name, **settings)


class TestRunSpecKeys:
    def test_key_is_stable_across_instances(self):
        a = RunSpec(TINY, seed=3, n_valid=1_000, quantities=QUANTITIES)
        b = RunSpec(TINY, seed=3, n_valid=1_000, quantities=QUANTITIES)
        assert a.key == b.key
        assert len(a.key) == 64

    @pytest.mark.parametrize(
        "override",
        [{"seed": 4}, {"n_valid": 2_000}, {"quantities": ("source_fanout",)},
         {"block_packets": 2_048}, {"scenario": TINY_FLAT}],
    )
    def test_result_defining_fields_change_the_key(self, override):
        base = dict(scenario=TINY, seed=3, n_valid=1_000, quantities=QUANTITIES)
        assert RunSpec(**base).key != RunSpec(**{**base, **override}).key

    @pytest.mark.parametrize("override", [{"chunk_packets": 2_000}, {"chunk_packets": 1}])
    def test_execution_knobs_do_not_change_the_key(self, override):
        base = dict(scenario=TINY, seed=3, n_valid=1_000, quantities=QUANTITIES)
        assert RunSpec(**base).key == RunSpec(**{**base, **override}).key

    def test_description_is_not_result_defining(self):
        renamed = Scenario(TINY.name, phases=TINY.phases, description="different words")
        assert scenario_fingerprint(renamed) == scenario_fingerprint(TINY)

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError, match="quantities"):
            RunSpec(TINY, seed=0, n_valid=1_000, quantities=("bogus",))
        with pytest.raises(ValueError, match="duplicate quantities"):
            RunSpec(TINY, seed=0, n_valid=1_000, quantities=("source_fanout", "source_fanout"))

    @pytest.mark.parametrize("build, error, match", [
        (lambda store: RunSpec(TINY, seed=0, n_valid=1_000, chunk_packets=0), ValueError, "chunk_packets"),
        (lambda store: RunSpec(TINY, seed=0, n_valid=1_000, chunk_packets=True), TypeError, "chunk_packets"),
        (lambda store: run_campaign(tiny_campaign(), store, max_cells=-1), ValueError, "max_cells"),
    ])
    def test_bad_execution_inputs_rejected_up_front(self, tmp_path, build, error, match):
        """A bad execution knob is refused before any cell runs, instead of
        failing every cell at compute time and using up its retries."""
        with pytest.raises(error, match=match):
            build(tmp_path / "store")
        assert not (tmp_path / "store").exists()

    def test_content_key_is_canonical(self):
        assert content_key({"b": 1, "a": 2}) == content_key({"a": 2, "b": 1})
        assert content_key({"a": 1}) != content_key({"a": 2})


class TestCampaign:
    def test_expansion_is_deterministic_and_complete(self):
        campaign = tiny_campaign(modes=("exact", "sketch"))
        cells = campaign.cells()
        assert len(cells) == campaign.n_cells == 2 * 2 * 1 * 2
        assert [c.key for c in cells] == [c.key for c in campaign.cells()]
        assert len({c.key for c in cells}) == len(cells)

    @pytest.mark.parametrize("axis, values", [
        ("scenarios", (TINY, TINY_FLAT, TINY)),
        ("seeds", (0, 0)),
        ("n_valids", (1_000, 2_000, 1_000)),
        ("modes", ("exact", "exact")),
    ])
    def test_repeated_axis_value_rejected(self, axis, values):
        """Each cell has its own content key: a value listed twice on any
        axis would list one result twice, so the grid refuses it."""
        with pytest.raises(ValueError, match=f"repeats a value on its {axis} axis"):
            tiny_campaign(**{axis: values})

    def test_unknown_scenario_fails_at_construction(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            tiny_campaign(scenarios=("no-such-scenario",))

    def test_empty_axes_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            tiny_campaign(seeds=())
        with pytest.raises(ValueError, match="scenario"):
            Campaign("empty", scenarios=())
        with pytest.raises(ValueError, match="window size"):
            tiny_campaign(n_valids=())
        with pytest.raises(ValueError, match="quantity"):
            tiny_campaign(quantities=())
        with pytest.raises(ValueError, match="mode"):
            tiny_campaign(modes=())


class TestResultStore:
    def test_roundtrip_and_record(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put("ab" + "0" * 62, {"rows": [1, 2, 3]}, meta={"n_windows": 7})
        assert "ab" + "0" * 62 in store
        assert store.get("ab" + "0" * 62) == {"rows": [1, 2, 3]}
        record = store.record("ab" + "0" * 62)
        assert record["n_windows"] == 7
        assert record["repro_version"]

    def test_missing_key_raises(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        with pytest.raises(KeyError):
            store.get("ff" + "0" * 62)
        assert ("ff" + "0" * 62) not in store

    def test_equal_payloads_store_identical_bytes(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        key = "cd" + "0" * 62
        store.put(key, {"x": 1})
        first = store._object_path(key).read_bytes()
        store.put(key, {"x": 1})
        assert store._object_path(key).read_bytes() == first

    def test_torn_cell_reads_as_missing(self, tmp_path):
        """A payload without its record (crash between writes) is not an entry."""
        store = ResultStore(tmp_path / "store")
        key = "ee" + "0" * 62
        path = store._object_path(key)
        path.parent.mkdir(parents=True)
        with gzip.open(path, "wb") as handle:
            handle.write(b"partial")
        assert key not in store
        assert list(store.keys()) == []

    def test_truncated_payload_reads_as_missing(self, tmp_path):
        """Torn-write mutation: chop bytes off a stored payload on disk."""
        store = ResultStore(tmp_path / "store")
        key = "aa" + "1" * 62
        store.put(key, {"rows": list(range(100))})
        assert key in store
        path = store._object_path(key)
        path.write_bytes(path.read_bytes()[:-7])
        assert key not in store
        with pytest.raises(KeyError):
            store.get(key)
        assert list(store.keys()) == []

    def test_corrupted_payload_reads_as_missing(self, tmp_path):
        """Same-size in-place corruption is caught by the pinned digest."""
        store = ResultStore(tmp_path / "store")
        key = "bb" + "1" * 62
        store.put(key, {"rows": list(range(100))})
        raw = bytearray(store._object_path(key).read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        store._object_path(key).write_bytes(bytes(raw))
        assert key not in store
        with pytest.raises(KeyError):
            store.get(key)

    def test_truncated_record_reads_as_missing(self, tmp_path):
        """Torn-write mutation: the record side, truncated mid-JSON."""
        store = ResultStore(tmp_path / "store")
        key = "cc" + "1" * 62
        store.put(key, {"x": 1})
        record_path = store._record_path(key)
        record_path.write_text(record_path.read_text(encoding="utf-8")[:10], encoding="utf-8")
        assert key not in store
        with pytest.raises(KeyError):
            store.record(key)
        with pytest.raises(KeyError):
            store.get(key)

    def test_undecodable_payload_with_valid_digest_is_a_miss(self, tmp_path):
        """Bytes that match their pins but fail unpickling (e.g. written by
        an incompatible version) must read as missing and be recomputed."""
        import hashlib
        import io

        from repro.streaming.trace_io import write_json_atomic

        store = ResultStore(tmp_path / "store")
        key = "dd" + "1" * 62
        store.put(key, {"x": 1})
        buffer = io.BytesIO()
        with gzip.GzipFile(fileobj=buffer, mode="wb", mtime=0) as handle:
            handle.write(b"\x80\x05 not a pickle stream")
        raw = buffer.getvalue()
        store._object_path(key).write_bytes(raw)
        write_json_atomic(
            store._record_path(key),
            {"key": key, "payload_bytes": len(raw),
             "payload_sha256": hashlib.sha256(raw).hexdigest()},
        )
        assert key in store          # pins match: only unpickling can tell
        with pytest.raises(KeyError):
            store.get(key)
        payload, cached = store.get_or_compute(key, lambda: {"fresh": True})
        assert payload == {"fresh": True} and not cached
        assert store.get(key) == {"fresh": True}

    def test_level9_payload_still_reads(self, tmp_path):
        """Cells written before payloads moved to gzip level 6 stay readable."""
        import hashlib
        import io
        import pickle

        from repro.streaming.trace_io import write_json_atomic

        store = ResultStore(tmp_path / "store")
        key = "ee" + "2" * 62
        payload = {"values": list(range(1000)), "name": "old"}
        store.put(key, payload)
        level6 = store._object_path(key).read_bytes()
        buffer = io.BytesIO()
        with gzip.GzipFile(fileobj=buffer, mode="wb", compresslevel=9, mtime=0) as handle:
            pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
        raw = buffer.getvalue()
        assert raw != level6
        store._object_path(key).write_bytes(raw)
        write_json_atomic(
            store._record_path(key),
            {"key": key, "payload_bytes": len(raw),
             "payload_sha256": hashlib.sha256(raw).hexdigest()},
        )
        assert key in store
        assert store.get(key) == payload

    @pytest.mark.parametrize("mutate", ["payload", "record"])
    def test_mutated_cell_is_recomputed_on_resume(self, tmp_path, mutate):
        """A campaign resumed over a mutated store recomputes the damaged
        cell (and only it) instead of crashing on it."""
        campaign = tiny_campaign()
        run_campaign(campaign, tmp_path / "store")
        store = ResultStore(tmp_path / "store")
        victim = campaign.cells()[0].key
        if mutate == "payload":
            path = store._object_path(victim)
            path.write_bytes(path.read_bytes()[: -5])
        else:
            store._record_path(victim).write_text("{torn", encoding="utf-8")
        assert victim not in store
        resumed = run_campaign(campaign, tmp_path / "store")
        assert resumed.n_computed == 1 and resumed.complete
        assert victim in store
        assert store.get(victim).analysis.n_windows > 0

    def test_stale_temp_files_pruned_on_open(self, tmp_path):
        """Debris of a hard-killed writer is swept; fresh temp files survive."""
        import os
        import time as time_module

        root = tmp_path / "store"
        store = ResultStore(root)
        objects = root / "objects" / "ab"
        objects.mkdir(parents=True)
        stale = objects / ("ab" + "0" * 62 + ".pkl.gz.x1.tmp")
        fresh = objects / ("ab" + "0" * 62 + ".pkl.gz.x2.tmp")
        stale.write_bytes(b"dead")
        fresh.write_bytes(b"in-flight")
        old = time_module.time() - 2 * ResultStore._TEMP_MAX_AGE_SECONDS
        os.utime(stale, (old, old))
        ResultStore(root)
        assert not stale.exists()
        assert fresh.exists()
        assert store is not None

    def test_serial_run_opens_the_store_once(self, tmp_path, monkeypatch):
        """Every cell works on the store the run opened, so the open's
        tree walks run once per run, not once per cell, and still sweep."""
        import os
        import time as time_module

        root = tmp_path / "store"
        orphan = root / "objects" / "ab" / ("ab" + "0" * 62 + ".pkl.gz.x1.tmp")
        orphan.parent.mkdir(parents=True)
        orphan.write_bytes(b"dead")
        old = time_module.time() - 2 * ResultStore._TEMP_MAX_AGE_SECONDS
        os.utime(orphan, (old, old))
        calls = []
        for name in ("_prune_orphaned_temp_files", "_prune_ancient_leases"):
            real = getattr(ResultStore, name)

            def counting(self, real=real, name=name):
                calls.append(name)
                real(self)

            monkeypatch.setattr(ResultStore, name, counting)
        run = run_campaign(tiny_campaign(), root)
        assert run.n_computed == len(tiny_campaign().cells()) == 4
        assert sorted(calls) == ["_prune_ancient_leases", "_prune_orphaned_temp_files"]
        assert not orphan.exists()

    def test_pickled_store_leaves_its_verification_memo_behind(self, tmp_path):
        """A store shipped to a pool worker carries its root, not the set of
        keys this process already verified (it grows with every cell)."""
        import pickle

        campaign = tiny_campaign()
        run_campaign(campaign, tmp_path / "store")
        store = ResultStore(tmp_path / "store")
        keys = [spec.key for spec in campaign.cells()]
        assert all(key in store for key in keys)
        assert store._verified == set(keys)
        shipped = pickle.loads(pickle.dumps(store))
        assert shipped.root == store.root
        assert shipped._verified == set()
        assert all(key in shipped for key in keys)
        assert store._verified == set(keys)

    def test_format_version_checked(self, tmp_path):
        from repro.streaming.trace_io import write_json_atomic

        root = tmp_path / "store"
        ResultStore(root)
        write_json_atomic(root / "store.json", {"format": 999})
        with pytest.raises(ValueError, match="format 999"):
            ResultStore(root)

    def test_cached_rows_hits_on_equal_params(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        calls = []

        def compute():
            calls.append(1)
            return [{"value": 42}]

        rows, cached = store.cached_rows("exp", {"p": 1}, compute)
        again, cached_again = store.cached_rows("exp", {"p": 1}, compute)
        other, other_cached = store.cached_rows("exp", {"p": 2}, compute)
        assert rows == again == other == [{"value": 42}]
        assert (cached, cached_again, other_cached) == (False, True, False)
        assert len(calls) == 2


class TestRunCampaign:
    def test_cold_then_warm(self, tmp_path):
        campaign = tiny_campaign()
        cold = run_campaign(campaign, tmp_path / "store")
        assert cold.n_computed == 4 and cold.n_cached == 0 and cold.complete
        warm = run_campaign(campaign, tmp_path / "store")
        assert warm.n_computed == 0 and warm.n_cached == 4 and warm.complete

    def test_warm_report_is_byte_identical(self, tmp_path):
        campaign = tiny_campaign()
        run_campaign(campaign, tmp_path / "store")
        first = CampaignReport.from_store(tmp_path / "store", campaign.name).render()
        warm = run_campaign(campaign, tmp_path / "store")
        assert warm.n_computed == 0
        second = CampaignReport.from_store(tmp_path / "store", campaign.name).render()
        assert first == second

    def test_cached_cell_is_bit_identical_to_recomputation(self, tmp_path):
        campaign = tiny_campaign(seeds=(5,), scenarios=(TINY,))
        run_campaign(campaign, tmp_path / "store")
        store = ResultStore(tmp_path / "store")
        (key,) = [cell.key for cell in campaign.cells()]
        cached = store.get(key)
        fresh = analyze_scenario(
            TINY, 1_000, seed=5, quantities=QUANTITIES, keep_windows=False
        )
        for quantity in QUANTITIES:
            a, b = cached.analysis.pooled(quantity), fresh.analysis.pooled(quantity)
            assert np.array_equal(a.values, b.values)
            assert np.array_equal(a.sigma, b.sigma)
            assert a.total == b.total
        assert cached.analysis == fresh.analysis
        assert np.array_equal(cached.phases.window_phase, fresh.phases.window_phase)
        for phase in cached.phases.occupied_phases():
            for quantity in QUANTITIES:
                assert np.array_equal(
                    cached.phases.pooled(phase, quantity).values,
                    fresh.phases.pooled(phase, quantity).values,
                )

    def test_partial_sweep_resumes_missing_cells_only(self, tmp_path):
        campaign = tiny_campaign()
        partial = run_campaign(campaign, tmp_path / "store", max_cells=1)
        assert partial.n_computed == 1 and partial.n_skipped == 3
        assert not partial.complete
        resumed = run_campaign(campaign, tmp_path / "store")
        assert resumed.n_computed == 3 and resumed.n_cached == 1
        assert resumed.complete

    def test_killed_sweep_keeps_finished_cells(self, tmp_path, monkeypatch):
        """A sweep dying mid-run loses only the in-flight cell."""
        campaign = tiny_campaign()
        real = runner_module.analyze_scenario
        calls = []

        def dying(scenario, *args, **kwargs):
            calls.append(scenario)
            if len(calls) == 3:
                raise KeyboardInterrupt("simulated kill")
            return real(scenario, *args, **kwargs)

        monkeypatch.setattr(runner_module, "analyze_scenario", dying)
        with pytest.raises(KeyboardInterrupt):
            run_campaign(campaign, tmp_path / "store")
        monkeypatch.setattr(runner_module, "analyze_scenario", real)
        resumed = run_campaign(campaign, tmp_path / "store")
        assert resumed.n_computed == 2  # the interrupted cell and the never-started one
        assert resumed.n_cached == 2    # the two that completed before the kill
        assert resumed.complete

    def test_process_pool_fan_out_matches_serial(self, tmp_path):
        campaign = tiny_campaign()
        run_campaign(campaign, tmp_path / "serial-store")
        pooled = run_campaign(campaign, tmp_path / "pool-store", pool="process", pool_workers=2)
        assert pooled.n_computed == 4
        report_a = CampaignReport.from_store(tmp_path / "serial-store", campaign.name).render()
        report_b = CampaignReport.from_store(tmp_path / "pool-store", campaign.name).render()
        assert report_a == report_b

    def test_pool_none_is_serial_even_with_pool_workers(self, tmp_path, monkeypatch, caplog):
        """pool_workers alone must not infer a process pool (pool=None is serial)."""
        import logging

        from repro.streaming.parallel import ProcessBackend

        def no_process_pool(self, fn, items):
            raise AssertionError("pool=None fanned cells out to a process pool")

        monkeypatch.setattr(ProcessBackend, "map", no_process_pool)
        campaign = tiny_campaign()
        with caplog.at_level(logging.INFO, logger="repro.campaigns.runner"):
            run = run_campaign(campaign, tmp_path / "store", pool_workers=4)
        assert run.complete and run.n_computed == 4
        assert any("serial pool" in record.message for record in caplog.records)

    def test_recompute_replaces_entries(self, tmp_path):
        campaign = tiny_campaign(seeds=(0,), scenarios=(TINY_FLAT,))
        run_campaign(campaign, tmp_path / "store")
        again = run_campaign(campaign, tmp_path / "store", recompute=True)
        assert again.n_computed == 1 and again.n_cached == 0

    def test_recompute_rejects_max_cells(self, tmp_path):
        """A capped recompute would re-select the same cells forever."""
        campaign = tiny_campaign()
        with pytest.raises(ValueError, match="max_cells"):
            run_campaign(campaign, tmp_path / "store", recompute=True, max_cells=1)

    def test_replacing_a_campaign_with_a_different_grid_warns(self, tmp_path, caplog):
        import logging

        run_campaign(tiny_campaign(scenarios=(TINY,), seeds=(0,)), tmp_path / "store")
        with caplog.at_level(logging.WARNING, logger="repro.campaigns.runner"):
            run_campaign(tiny_campaign(scenarios=(TINY_FLAT,), seeds=(0,)), tmp_path / "store")
        assert any("different grid" in record.message for record in caplog.records)

    def test_rerunning_the_same_grid_does_not_warn(self, tmp_path, caplog):
        import logging

        campaign = tiny_campaign(scenarios=(TINY,), seeds=(0,))
        run_campaign(campaign, tmp_path / "store")
        with caplog.at_level(logging.WARNING, logger="repro.campaigns.runner"):
            run_campaign(campaign, tmp_path / "store")
        assert not any("different grid" in record.message for record in caplog.records)

    def test_rejected_run_records_no_campaign(self, tmp_path):
        campaign = tiny_campaign()
        with pytest.raises(ValueError, match="n_workers"):
            run_campaign(campaign, tmp_path / "store", pool="process", pool_workers=0)
        assert ResultStore(tmp_path / "store").campaign_names() == ()

    def test_cached_record_without_n_windows_reports_none(self, tmp_path):
        """The CellOutcome contract: a cached cell whose stored record
        predates window-count recording (older store, or written by
        ``get_or_compute``) carries ``n_windows=None`` and renders with an
        empty windows column — it must not crash or invent a count."""
        from repro.streaming.trace_io import write_json_atomic

        campaign = tiny_campaign(seeds=(0,), scenarios=(TINY_FLAT,))
        run_campaign(campaign, tmp_path / "store")
        store = ResultStore(tmp_path / "store")
        (key,) = [cell.key for cell in campaign.cells()]
        record = store.record(key)
        record.pop("n_windows")
        write_json_atomic(store._record_path(key), record)
        warm = run_campaign(campaign, tmp_path / "store")
        (outcome,) = warm.outcomes
        assert outcome.status == "cached"
        assert outcome.n_windows is None
        assert outcome.as_row()["windows"] == ""

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"workers": 0}, "workers"),
            ({"workers": 2, "worker_index": 3}, "worker_index"),
            ({"workers": 2, "worker_index": 0}, "worker_index"),
            ({"workers": 2, "recompute": True}, "recompute"),
            ({"lease_ttl": 0.0}, "lease_ttl"),
            ({"lease_ttl": 5.0, "heartbeat_seconds": 5.0}, "heartbeat"),
        ],
    )
    def test_fleet_argument_validation(self, tmp_path, kwargs, match):
        campaign = tiny_campaign()
        with pytest.raises(ValueError, match=match):
            run_campaign(campaign, tmp_path / "store", **kwargs)


class TestDeterminismProperty:
    """The store's warm path is indistinguishable from recomputation."""

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n_valid=st.sampled_from([400, 900, 1_300]),
    )
    def test_cached_equals_recomputed_for_any_cell(self, seed, n_valid):
        spec = RunSpec(TINY_FLAT, seed=seed, n_valid=n_valid, quantities=("source_fanout",))
        with tempfile.TemporaryDirectory() as tmp:
            store = ResultStore(tmp)
            campaign = Campaign(
                "prop", scenarios=(TINY_FLAT,), seeds=(seed,), n_valids=(n_valid,),
                quantities=("source_fanout",),
            )
            run_campaign(campaign, store)
            cached = store.get(spec.key)
        fresh = analyze_scenario(
            TINY_FLAT, n_valid, seed=seed, quantities=("source_fanout",), keep_windows=False
        )
        assert cached.analysis == fresh.analysis
        a, b = cached.analysis.pooled("source_fanout"), fresh.analysis.pooled("source_fanout")
        assert np.array_equal(a.values, b.values) and np.array_equal(a.sigma, b.sigma)


class TestCampaignReport:
    def test_missing_cells_render_as_missing(self, tmp_path):
        campaign = tiny_campaign()
        run_campaign(campaign, tmp_path / "store", max_cells=2)
        report = CampaignReport.from_store(tmp_path / "store", campaign.name)
        assert not report.complete
        assert len(report.missing) == 2
        rows = report.cell_rows("source_fanout")
        assert sum(1 for r in rows if r["status"] == "missing") == 2

    def test_unknown_campaign_raises(self, tmp_path):
        ResultStore(tmp_path / "store")
        with pytest.raises(KeyError, match="no campaign"):
            CampaignReport.from_store(tmp_path / "store", "nope")

    def test_store_naming_a_removed_backend_still_reports(self, tmp_path, capsys):
        """Stores written while a ``streaming`` backend existed name it in
        their manifest cells, run records and stored ``engine_stats``;
        status and report read those as plain strings and still render."""
        store = ResultStore(tmp_path / "store")
        campaign = tiny_campaign(seeds=(0,))
        run_campaign(campaign, store)
        manifest = store.load_campaign(campaign.name)
        for cell in manifest["cells"]:
            cell["backend"] = "streaming"
        store.save_campaign(manifest)
        for key in (cell.key for cell in campaign.cells()):
            run = store.get(key)
            state = run.analysis._stream
            analysis = dataclasses.replace(
                run.analysis,
                _stream=dataclasses.replace(state, stats={**state.stats, "backend": "streaming"}),
            )
            record = store.record(key)
            meta = {k: record[k] for k in ("spec", "seconds", "n_windows", "attempts")}
            meta["spec"] = {**meta["spec"], "backend": "streaming"}
            store.put(key, dataclasses.replace(run, analysis=analysis), meta=meta)

        report = CampaignReport.from_store(store, campaign.name)
        assert report.complete
        assert {row["computed_by"] for row in report.engine_rows()} == {"streaming"}
        assert "streaming" in report.render("source_fanout")
        assert main(["campaign", "status", "--store", str(store.root), "--check"]) == 0
        assert "check passed" in capsys.readouterr().out

    def test_store_listing_each_key_under_two_backends_still_reads(
        self, tmp_path, capsys, caplog
    ):
        """Stores written while grids had a backend axis list every key
        twice — once per backend, with ``backend``/``n_workers`` fields.
        Status, summary and report count each key once, and re-running the
        same grid on such a store computes nothing and replaces no grid."""
        import logging

        store = ResultStore(tmp_path / "store")
        campaign = tiny_campaign(scenarios=(TINY,))
        run_campaign(campaign, store)
        manifest = store.load_campaign(campaign.name)
        manifest["cells"] = [
            {**cell, "backend": backend, "n_workers": workers}
            for cell in manifest["cells"]
            for backend, workers in (("serial", None), ("process", 2))
        ]
        manifest["n_cells"] = len(manifest["cells"])
        store.save_campaign(manifest)

        assert main(["campaign", "status", "--store", str(store.root), "--check"]) == 0
        assert "check passed" in capsys.readouterr().out
        (status,) = fleet_status_rows(store, [campaign.name])
        assert status["cells"] == status["stored"] == 2
        report = CampaignReport.from_store(store, campaign.name)
        assert report.complete and len(report.results) == 2
        assert len(report.cell_rows("source_fanout")) == 2
        (summary,) = report.summary_rows("source_fanout")
        assert summary["seeds"] == 2
        assert "4 cells, 2 unique results stored, 0 missing" in report.render("source_fanout")

        with caplog.at_level(logging.WARNING, logger="repro.campaigns.runner"):
            warm = run_campaign(campaign, store)
        assert warm.n_computed == 0 and warm.n_cached == 2
        assert not any("different grid" in record.message for record in caplog.records)

    @pytest.mark.parametrize("ttl", [0.0, -5.0])
    def test_status_rows_reject_non_positive_ttl(self, tmp_path, ttl):
        store = ResultStore(tmp_path / "store")
        with pytest.raises(ValueError, match="lease_ttl must be > 0"):
            fleet_status_rows(store, [], ttl=ttl)


class TestCellRetries:
    """Per-cell retry budgets: flaky analyses get re-run, attempts recorded."""

    def _flaky(self, monkeypatch, failures: int):
        """Patch the runner's analyze_scenario to fail *failures* times per run."""
        real = runner_module.analyze_scenario
        calls = []

        def flaky(*args, **kwargs):
            calls.append(1)
            if len(calls) <= failures:
                raise RuntimeError(f"transient failure #{len(calls)}")
            return real(*args, **kwargs)

        monkeypatch.setattr(runner_module, "analyze_scenario", flaky)
        return calls

    def test_budget_rescues_flaky_cell(self, tmp_path, monkeypatch):
        campaign = tiny_campaign(seeds=(0,), scenarios=(TINY_FLAT,))
        calls = self._flaky(monkeypatch, failures=2)
        run = run_campaign(campaign, tmp_path / "store", cell_retries=2)
        assert run.complete and run.n_computed == 1 and run.n_failed == 0
        assert len(calls) == 3
        (outcome,) = run.outcomes
        assert outcome.attempts == 3

        store = ResultStore(tmp_path / "store")
        assert store.record(outcome.key)["attempts"] == 3
        report = CampaignReport.from_store(store, campaign.name)
        (row,) = report.cell_rows("source_fanout")
        assert row["attempts"] == 3 and row["status"] == "stored"
        (status_row,) = fleet_status_rows(store, [campaign.name])
        assert status_row["retried"] == 1 and status_row["complete"]

    def test_rescued_cell_is_bit_identical_to_clean_run(self, tmp_path, monkeypatch):
        """Retries change nothing about the stored result, only its history."""
        campaign = tiny_campaign(seeds=(0,), scenarios=(TINY_FLAT,))
        run_campaign(campaign, tmp_path / "clean")
        self._flaky(monkeypatch, failures=1)
        run = run_campaign(campaign, tmp_path / "flaky", cell_retries=1)
        key = run.outcomes[0].key
        clean = ResultStore(tmp_path / "clean").get(key)
        rescued = ResultStore(tmp_path / "flaky").get(key)
        a = clean.analysis.pooled("source_fanout")
        b = rescued.analysis.pooled("source_fanout")
        assert a.values.tobytes() == b.values.tobytes()
        assert a.sigma.tobytes() == b.sigma.tobytes()

    def test_zero_budget_fails_on_first_error(self, tmp_path, monkeypatch):
        campaign = tiny_campaign(seeds=(0,), scenarios=(TINY_FLAT,))
        calls = self._flaky(monkeypatch, failures=99)
        run = run_campaign(campaign, tmp_path / "store")
        assert run.n_failed == 1 and len(calls) == 1
        (outcome,) = run.outcomes
        assert outcome.attempts == 1 and "transient failure #1" in outcome.error

    def test_exhausted_budget_reports_final_attempt_count(self, tmp_path, monkeypatch):
        campaign = tiny_campaign(seeds=(0,), scenarios=(TINY_FLAT,))
        calls = self._flaky(monkeypatch, failures=99)
        run = run_campaign(campaign, tmp_path / "store", cell_retries=2)
        assert run.n_failed == 1 and len(calls) == 3
        (outcome,) = run.outcomes
        assert outcome.attempts == 3 and "transient failure #3" in outcome.error
        # nothing was stored, so nothing was retried from the store's view
        (status_row,) = fleet_status_rows(
            ResultStore(tmp_path / "store"), [campaign.name]
        )
        assert status_row["retried"] == 0 and not status_row["complete"]

    def test_retry_attempts_logged_as_warnings(self, tmp_path, monkeypatch, caplog):
        campaign = tiny_campaign(seeds=(0,), scenarios=(TINY_FLAT,))
        self._flaky(monkeypatch, failures=1)
        with caplog.at_level("WARNING", logger="repro"):
            run_campaign(campaign, tmp_path / "store", cell_retries=1)
        assert any("retrying" in record.message for record in caplog.records)

    def test_negative_budget_rejected(self, tmp_path):
        campaign = tiny_campaign(seeds=(0,), scenarios=(TINY_FLAT,))
        with pytest.raises(ValueError, match="cell_retries"):
            run_campaign(campaign, tmp_path / "store", cell_retries=-1)

    def test_cached_cells_keep_their_recorded_attempts(self, tmp_path, monkeypatch):
        """A warm re-run reports the attempts recorded when the cell was computed."""
        campaign = tiny_campaign(seeds=(0,), scenarios=(TINY_FLAT,))
        self._flaky(monkeypatch, failures=2)
        run_campaign(campaign, tmp_path / "store", cell_retries=2)
        warm = run_campaign(campaign, tmp_path / "store")
        (outcome,) = warm.outcomes
        assert outcome.status == "cached" and outcome.attempts == 3
