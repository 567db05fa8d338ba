"""Tests for lease-based multi-worker campaigns and per-cell failure containment.

Three contracts under test, in increasing order of machinery:

* **lease primitives** — ``O_EXCL`` acquisition is exclusive, heartbeats
  keep a claim alive, stale leases are taken over, and GC only ever sweeps
  leases that no longer guard anything;
* **failure containment** — a raising cell becomes a ``status="failed"``
  outcome with the error text; every other cell still computes, nothing
  torn lands in the store, and a re-run retries exactly the failed cells;
* **fleets** — two real processes sweeping one grid over one store compute
  disjoint cell sets (zero duplicate computes in the happy path), a
  SIGKILLed worker's stale lease is taken over by a resuming sweep, and
  the fleet-swept store is bit-identical to a serial sweep.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import threading
import time
from pathlib import Path

import pytest

import repro.campaigns.runner as runner_module
from repro.campaigns import (
    Campaign,
    ResultStore,
    parse_worker_id,
    run_campaign,
)
from repro.campaigns.runner import _claim_and_compute_cell
from repro.scenarios import Phase, Scenario

#: Tiny scenarios (distinct from test_campaigns.py's so cross-file runs
#: never share content keys by accident).
LEASE_TINY = Scenario(
    "tiny-lease-test",
    phases=(
        Phase("erdos-renyi", 5_000, {"n_nodes": 300, "p": 0.03}),
        Phase("palu", 5_000, {"n_nodes": 400, "alpha": 2.1}, rate_exponent=1.3),
    ),
    description="test-only lease workload",
)

LEASE_FLAT = Scenario(
    "tiny-lease-flat",
    phases=(Phase("erdos-renyi", 6_000, {"n_nodes": 300, "p": 0.03}),),
)

QUANTITIES = ("source_fanout",)

KEY_A = "ab" + "0" * 62
KEY_B = "cd" + "0" * 62


def lease_campaign(name="lease", **overrides) -> Campaign:
    settings = {
        "scenarios": (LEASE_TINY, LEASE_FLAT),
        "seeds": (0, 1),
        "n_valids": (1_000,),
        "quantities": QUANTITIES,
    }
    settings.update(overrides)
    return Campaign(name, **settings)


def _age_lease(store: ResultStore, key: str, seconds: float) -> None:
    """Backdate a lease's heartbeat, as if its holder stopped beating."""
    path = store._lease_path(key)
    old = time.time() - seconds
    os.utime(path, (old, old))


class TestLeasePrimitives:
    def test_acquire_is_exclusive(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        assert store.acquire_lease(KEY_A, "w1", ttl=10)
        assert not store.acquire_lease(KEY_A, "w2", ttl=10)
        info = store.lease_info(KEY_A, ttl=10)
        assert info["owner"] == "w1" and not info["stale"]
        assert info["pid"] == os.getpid()

    def test_release_then_reacquire(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.acquire_lease(KEY_A, "w1", ttl=10)
        assert store.release_lease(KEY_A, "w1")
        assert store.lease_info(KEY_A) is None
        assert store.acquire_lease(KEY_A, "w2", ttl=10)

    def test_release_by_non_owner_is_a_noop(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.acquire_lease(KEY_A, "w1", ttl=10)
        assert not store.release_lease(KEY_A, "w2")
        assert store.lease_info(KEY_A, ttl=10)["owner"] == "w1"

    def test_refresh_requires_ownership_and_bumps_heartbeat(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.acquire_lease(KEY_A, "w1", ttl=10)
        _age_lease(store, KEY_A, 8.0)
        assert store.lease_info(KEY_A, ttl=10)["age"] > 7
        assert not store.refresh_lease(KEY_A, "w2")
        assert store.refresh_lease(KEY_A, "w1")
        assert store.lease_info(KEY_A, ttl=10)["age"] < 1
        assert not store.refresh_lease(KEY_B, "w1")  # no lease at all

    def test_stale_lease_is_taken_over(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.acquire_lease(KEY_A, "dead", ttl=5)
        _age_lease(store, KEY_A, 60.0)
        assert store.lease_info(KEY_A, ttl=5)["stale"]
        assert store.acquire_lease(KEY_A, "alive", ttl=5)
        info = store.lease_info(KEY_A, ttl=5)
        assert info["owner"] == "alive" and not info["stale"]

    def test_unreadable_lease_still_occupies_and_ages(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        path = store._lease_path(KEY_A)
        path.parent.mkdir(parents=True)
        path.write_text("{torn", encoding="utf-8")
        assert not store.acquire_lease(KEY_A, "w1", ttl=10)
        info = store.lease_info(KEY_A, ttl=10)
        assert info["owner"] == "<unreadable>" and not info["stale"]
        _age_lease(store, KEY_A, 60.0)
        assert store.acquire_lease(KEY_A, "w1", ttl=10)
        assert store.lease_info(KEY_A, ttl=10)["owner"] == "w1"

    def test_gc_sweeps_only_dead_claims(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put(KEY_A, {"x": 1})
        store.acquire_lease(KEY_A, "late", ttl=5)       # stored: holder died pre-release
        store.acquire_lease(KEY_B, "gone", ttl=5)
        _age_lease(store, KEY_B, 60.0)                  # stale: holder died mid-compute
        live = "ef" + "0" * 62
        store.acquire_lease(live, "busy", ttl=5)        # fresh claim on a missing key
        assert store.gc_leases(ttl=5) == 2
        assert [info["owner"] for info in store.iter_leases(ttl=5)] == ["busy"]

    def test_ancient_leases_pruned_at_open(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.acquire_lease(KEY_A, "forgotten", ttl=5)
        _age_lease(store, KEY_A, 2 * ResultStore._TEMP_MAX_AGE_SECONDS)
        store.acquire_lease(KEY_B, "recent", ttl=5)
        reopened = ResultStore(tmp_path / "store")
        owners = [info["owner"] for info in reopened.iter_leases(ttl=5)]
        assert owners == ["recent"]

    def test_parse_worker_id(self):
        assert parse_worker_id("1/1") == (1, 1)
        assert parse_worker_id("3/8") == (3, 8)
        for bad in ("0/2", "3/2", "2", "a/b", "1/0", "/", "1/", "/2"):
            with pytest.raises(ValueError, match="worker id"):
                parse_worker_id(bad)


class TestHeartbeat:
    def test_heartbeat_keeps_long_cell_claims_fresh(self, tmp_path, monkeypatch):
        """While a slow cell computes, its lease never goes TTL-stale and a
        competing worker cannot claim it; afterwards the cell is stored and
        the lease released.

        Deadline-based, no fixed sleeps: the slow cell holds its lease open
        until the main thread has *observed* the lease for longer than the
        TTL (so a dead heartbeat could not hide), with generous ceilings on
        every wait so a loaded machine slows the test down instead of
        flaking it."""
        real = runner_module.analyze_scenario
        observed_enough = threading.Event()

        def slow(*args, **kwargs):
            observed_enough.wait(timeout=60)
            return real(*args, **kwargs)

        monkeypatch.setattr(runner_module, "analyze_scenario", slow)
        campaign = lease_campaign(scenarios=(LEASE_FLAT,), seeds=(0,))
        (spec,) = campaign.cells()
        store = ResultStore(tmp_path / "store")
        ttl = 1.0

        result: dict = {}

        def work():
            result.update(
                _claim_and_compute_cell(
                    spec, store=ResultStore(store.root), owner="slowpoke",
                    ttl=ttl, heartbeat=0.1,
                )
            )

        worker = threading.Thread(target=work)
        worker.start()
        deadline = time.time() + 120
        first_seen = None
        stale_seen = False
        foreign_claims = 0
        while worker.is_alive() and time.time() < deadline:
            info = store.lease_info(spec.key, ttl=ttl)
            if info is not None:
                now = time.time()
                first_seen = first_seen if first_seen is not None else now
                stale_seen = stale_seen or info["stale"]
                if store.acquire_lease(spec.key, "thief", ttl=ttl):
                    foreign_claims += 1
                    store.release_lease(spec.key, "thief")
                # the lease outlived 2x its TTL under observation: only the
                # heartbeat can have kept it fresh — let the cell finish
                if now - first_seen >= 2 * ttl:
                    observed_enough.set()
            time.sleep(0.05)
        observed_enough.set()  # unblock the worker on any exit path
        worker.join(timeout=120)
        assert not worker.is_alive(), "slow cell never finished"
        assert first_seen is not None, "lease was never observed"
        assert result["status"] == "computed"
        assert not stale_seen
        assert foreign_claims == 0
        assert spec.key in store
        assert store.lease_info(spec.key) is None


class TestFailureContainment:
    def test_raising_cell_does_not_abort_the_sweep(self, tmp_path, monkeypatch):
        campaign = lease_campaign()
        real = runner_module.analyze_scenario

        def exploding(scenario, *args, **kwargs):
            if scenario.name == LEASE_FLAT.name:
                raise RuntimeError("synthetic cell failure")
            return real(scenario, *args, **kwargs)

        monkeypatch.setattr(runner_module, "analyze_scenario", exploding)
        run = run_campaign(campaign, tmp_path / "store", lease_ttl=10)
        assert run.n_computed == 2 and run.n_failed == 2
        assert not run.complete
        store = ResultStore(tmp_path / "store")
        for outcome in run.failures:
            assert outcome.error == "RuntimeError: synthetic cell failure"
            assert outcome.n_windows is None
            assert outcome.key not in store
        assert list(store.iter_leases()) == []  # failed claims are released
        assert len(run.failure_lines()) == 2
        assert "RuntimeError: synthetic cell failure" in run.failure_lines()[0]

    def test_rerun_retries_exactly_the_failed_cells(self, tmp_path, monkeypatch):
        campaign = lease_campaign()
        real = runner_module.analyze_scenario

        def exploding(scenario, *args, **kwargs):
            if scenario.name == LEASE_FLAT.name:
                raise RuntimeError("transient")
            return real(scenario, *args, **kwargs)

        monkeypatch.setattr(runner_module, "analyze_scenario", exploding)
        first = run_campaign(campaign, tmp_path / "store", lease_ttl=10)
        assert first.n_failed == 2
        monkeypatch.setattr(runner_module, "analyze_scenario", real)
        resumed = run_campaign(campaign, tmp_path / "store", lease_ttl=10)
        assert resumed.n_computed == 2 and resumed.n_cached == 2
        assert resumed.n_failed == 0 and resumed.complete

    def test_failures_contained_under_process_pool(self, tmp_path):
        """Containment must hold when cells run on pool workers too: an
        unpicklable-argument TypeError style failure in one worker cannot
        sink the others.  Forcing a real exception inside a worker needs a
        cell that fails on its own, so point one scenario at an impossible
        graph parameterisation that only explodes at generation time."""
        bad = Scenario(
            "tiny-lease-bad",
            phases=(Phase("erdos-renyi", 5_000, {"n_nodes": 300, "p": 40.0}),),
        )
        campaign = lease_campaign(scenarios=(LEASE_FLAT, bad), seeds=(0,))
        run = run_campaign(
            campaign, tmp_path / "store", pool="process", pool_workers=2, lease_ttl=10
        )
        assert run.n_computed == 1 and run.n_failed == 1
        (failure,) = run.failures
        assert failure.scenario == "tiny-lease-bad" and failure.error


class TestPutCleanup:
    def test_put_failure_is_not_masked_by_cleanup(self, tmp_path, monkeypatch):
        """When ``os.replace`` consumes the temp file and *then* the put
        fails, the cleanup unlink (now missing its target) must not
        swallow the original error."""
        store = ResultStore(tmp_path / "store")
        real_replace = os.replace

        def replace_then_fail(src, dst, *args, **kwargs):
            real_replace(src, dst, *args, **kwargs)
            raise RuntimeError("disk went away")

        monkeypatch.setattr(os, "replace", replace_then_fail)
        with pytest.raises(RuntimeError, match="disk went away"):
            store.put(KEY_A, {"x": 1})


def _fleet_worker(campaign, store_root, worker_index, workers, out_path):
    """Fleet-member entry point (module-level so fork/spawn can target it)."""
    run = run_campaign(
        campaign, store_root,
        workers=workers, worker_index=worker_index, lease_ttl=10.0,
    )
    Path(out_path).write_text(
        json.dumps(
            {
                "computed": sorted(
                    {o.key for o in run.outcomes if o.status == "computed"}
                ),
                "failed": sorted({o.key for o in run.outcomes if o.status == "failed"}),
                "complete": run.complete,
            }
        ),
        encoding="utf-8",
    )


def _doomed_worker(campaign, store_root, delay):
    """Fleet member whose every cell stalls *delay* seconds — SIGKILL bait."""
    real = runner_module.analyze_scenario

    def slow(*args, **kwargs):
        time.sleep(delay)
        return real(*args, **kwargs)

    runner_module.analyze_scenario = slow
    run_campaign(campaign, store_root, workers=1, worker_index=1, lease_ttl=60.0)


def _object_bytes(root) -> dict:
    """Relative path -> payload bytes of every stored object under *root*."""
    root = Path(root)
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.glob("objects/*/*.pkl.gz"))
    }


@pytest.mark.slow
class TestFleet:
    """Real multi-process fleets over one shared store."""

    def test_two_workers_split_the_grid_without_duplicates(self, tmp_path):
        campaign = lease_campaign(seeds=(0, 1, 2))  # 6 cells
        store_root = tmp_path / "fleet-store"
        ctx = multiprocessing.get_context("fork")
        outs = [tmp_path / "w1.json", tmp_path / "w2.json"]
        procs = [
            ctx.Process(
                target=_fleet_worker,
                args=(campaign, str(store_root), k, 2, str(out)),
            )
            for k, out in zip((1, 2), outs)
        ]
        for proc in procs:
            proc.start()
        # deadline-based with a generous ceiling: a stuck worker fails the
        # test with a clear message instead of asserting on exitcode None
        deadline = time.time() + 300
        for proc in procs:
            proc.join(timeout=max(1.0, deadline - time.time()))
            assert not proc.is_alive(), "fleet worker did not finish before the deadline"
            assert proc.exitcode == 0
        results = [json.loads(out.read_text(encoding="utf-8")) for out in outs]
        computed = [set(r["computed"]) for r in results]
        # zero duplicate computes in the happy path: the computed sets are
        # disjoint and together cover the whole grid
        assert computed[0].isdisjoint(computed[1])
        assert computed[0] | computed[1] == {cell.key for cell in campaign.cells()}
        assert all(r["complete"] for r in results)
        assert list(ResultStore(store_root).iter_leases()) == []

        # the fleet-swept store is bit-identical to a serial sweep
        serial_root = tmp_path / "serial-store"
        serial = run_campaign(campaign, serial_root)
        assert serial.complete
        assert _object_bytes(store_root) == _object_bytes(serial_root)

    def test_sigkilled_worker_lease_is_taken_over(self, tmp_path):
        campaign = lease_campaign(scenarios=(LEASE_FLAT,), seeds=(7,))
        store_root = tmp_path / "fleet-store"
        ctx = multiprocessing.get_context("fork")
        victim = ctx.Process(
            target=_doomed_worker, args=(campaign, str(store_root), 60.0)
        )
        victim.start()
        store = ResultStore.__new__(ResultStore)  # opened lazily below
        deadline = time.time() + 60
        lease = None
        while time.time() < deadline and lease is None:
            if (Path(store_root) / "store.json").is_file():
                store = ResultStore(store_root)
                lease = next(iter(store.iter_leases(ttl=60.0)), None)
            if lease is None:
                time.sleep(0.05)
        assert lease is not None, "victim never claimed a lease"
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=60)
        assert not victim.is_alive(), "SIGKILLed worker did not reap"

        # the kill froze the heartbeat mid-cell: the lease survives, the
        # cell is missing, and a short-TTL resume must take the claim over
        store = ResultStore(store_root)
        (key,) = [cell.key for cell in campaign.cells()]
        assert key not in store
        assert store.lease_info(key, ttl=60.0) is not None

        resumed = run_campaign(campaign, store_root, lease_ttl=0.5)
        assert resumed.n_computed == 1 and resumed.complete
        assert key in store
        assert store.lease_info(key) is None  # takeover claim was released

        serial_root = tmp_path / "serial-store"
        run_campaign(campaign, serial_root)
        assert _object_bytes(store_root) == _object_bytes(serial_root)
