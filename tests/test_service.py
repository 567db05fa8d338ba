"""Unit tests of the service layer: job configs, batch validation, engine.

The daemon-level behaviour (HTTP routes, fault containment, lifecycle)
lives in ``test_service_faults.py``; the incremental-vs-one-shot
bit-identity property harness lives in ``test_service_properties.py``.
This module covers the building blocks directly: the versioned
:class:`~repro.service.config.JobConfig` schema, strict batch validation,
the :class:`~repro.service.engine.JobEngine` fold, and the registry's
result-store flush.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.campaigns.store import ResultStore
from repro.scenarios import analyze_scenario, get_scenario
from repro.scenarios.source import ScenarioTraceSource
from repro.service import (
    JOB_CONFIG_VERSION,
    JobConfig,
    JobConfigError,
    JobEngine,
    JobRegistry,
    load_job_config,
    packet_batch_from_json,
)
from repro.service.config import DetectionSection, SketchSection, WindowSection
from repro.service.engine import MAX_ENDPOINT_ID, MAX_PACKET_SIZE, BatchError

N_VALID = 2_000
SCENARIO = "stationary"


def _config(**overrides) -> JobConfig:
    data = {"name": "t", "window": {"n_valid": N_VALID}}
    data.update(overrides)
    return JobConfig.from_dict(data)


class TestJobConfig:
    """The versioned schema: round-trip, validation paths, hashing."""

    def test_defaults_round_trip(self):
        config = JobConfig(name="job-1")
        rebuilt = JobConfig.from_dict(config.as_dict())
        assert rebuilt == config
        assert rebuilt.config_hash() == config.config_hash()
        assert config.version == JOB_CONFIG_VERSION

    def test_as_dict_is_json_serialisable(self):
        config = _config(detection={"detectors": ["cusum"], "quantity": "source_fanout"})
        dumped = json.dumps(config.as_dict())
        assert JobConfig.from_dict(json.loads(dumped)) == config

    def test_hash_distinguishes_knobs(self):
        assert _config().config_hash() != _config(
            window={"n_valid": N_VALID + 1}
        ).config_hash()

    def test_detectors_deduped_and_order_normalised(self):
        a = _config(detection={"detectors": ["cusum", "cusum"]})
        b = _config(detection={"detectors": ["cusum"]})
        assert a.detection.detectors == ("cusum",)
        assert a.config_hash() == b.config_hash()

    @pytest.mark.parametrize(
        ("data", "needle"),
        [
            ({"name": ""}, "non-empty"),
            ({"name": "a/b"}, "URL path segment"),
            ({"name": "t", "version": 99}, "version"),
            ({"name": "t", "bogus": 1}, "unknown job-config key"),
            ({"name": "t", "window": {"bogus": 1}}, "window.bogus"),
            ({"name": "t", "window": {"n_valid": 0}}, "window.n_valid"),
            ({"name": "t", "window": {"n_valid": True}}, "window.n_valid"),
            ({"name": "t", "window": {"mode": "psychic"}}, "window.mode"),
            ({"name": "t", "window": {"quantities": ["nope"]}}, "window.quantities"),
            ({"name": "t", "window": {"quantities": []}}, "window.quantities"),
            ({"name": "t", "window": {"quantities": ["source_fanout", "source_fanout"]}},
             "duplicate quantity"),
            ({"name": "t", "detection": {"detectors": ["nope"]}}, "detection.detectors"),
            ({"name": "t", "detection": {"quantity": "source_fanout"}}, "detection.quantity"),
            ({"name": "t", "source": {"scenario": "no-such"}}, "source.scenario"),
            ({"name": "t", "sketch": {"epsilon": 1e-3}}, "window.mode is 'exact'"),
            ({"name": "t", "window": "nope"}, "window"),
            ({}, "name"),
        ],
    )
    def test_path_qualified_rejections(self, data, needle):
        with pytest.raises(JobConfigError, match=".*") as excinfo:
            JobConfig.from_dict(data)
        assert needle in str(excinfo.value)

    def test_sketch_mode_accepts_knobs(self):
        config = _config(
            window={"n_valid": N_VALID, "mode": "sketch"},
            sketch={"epsilon": 1e-3, "seed": 7},
        )
        sketch = config.sketch_config()
        assert sketch is not None and sketch.epsilon == 1e-3 and sketch.seed == 7
        assert JobConfig.from_dict(config.as_dict()) == config

    def test_exact_mode_has_no_sketch_config(self):
        assert _config().sketch_config() is None

    def test_load_job_config(self, tmp_path):
        path = tmp_path / "job.json"
        config = _config()
        path.write_text(json.dumps(config.as_dict()))
        assert load_job_config(path) == config

    def test_load_job_config_missing_file(self, tmp_path):
        with pytest.raises(JobConfigError, match="cannot read job config"):
            load_job_config(tmp_path / "nope.json")

    def test_load_job_config_bad_json(self, tmp_path):
        path = tmp_path / "job.json"
        path.write_text("{not json")
        with pytest.raises(JobConfigError, match="not valid JSON"):
            load_job_config(path)

    def test_load_job_config_bad_schema_names_file(self, tmp_path):
        path = tmp_path / "job.json"
        path.write_text(json.dumps({"name": "t", "version": 99}))
        with pytest.raises(JobConfigError) as excinfo:
            load_job_config(path)
        assert str(path) in str(excinfo.value)
        assert "version" in str(excinfo.value)

    def test_sections_validate_standalone(self):
        WindowSection().validate()
        SketchSection().validate()
        DetectionSection().validate()
        with pytest.raises(JobConfigError, match="w.n_valid"):
            WindowSection(n_valid=-1).validate("w")


class TestPacketBatchFromJson:
    """Strict pre-fold validation of ingested batches."""

    def test_minimal_batch(self):
        trace = packet_batch_from_json({"src": [1, 2, 3], "dst": [4, 5, 6]})
        assert trace.n_packets == 3
        assert trace.n_valid == 3

    def test_full_batch(self):
        trace = packet_batch_from_json(
            {
                "src": [1, 2],
                "dst": [3, 4],
                "time": [0.5, 1.5],
                "size": [100, 200],
                "valid": [True, False],
            }
        )
        assert trace.n_packets == 2
        assert trace.n_valid == 1

    @pytest.mark.parametrize(
        ("batch", "needle"),
        [
            ([1, 2], "JSON object"),
            ({"dst": [1]}, "missing the 'src'"),
            ({"src": [1]}, "missing the 'dst'"),
            ({"src": [1, 2], "dst": [3]}, "has 1 entries but 'src' has 2"),
            ({"src": [], "dst": []}, "empty"),
            ({"src": [1.5], "dst": [2]}, "must be integers"),
            ({"src": [[1]], "dst": [[2]]}, "1-D"),
            ({"src": [-1], "dst": [2]}, "out-of-range"),
            ({"src": [MAX_ENDPOINT_ID + 1], "dst": [2]}, "out-of-range"),
            ({"src": [1], "dst": [2], "payload": "x"}, "unknown batch column"),
            ({"src": [1], "dst": [2], "time": [1.0, 2.0]}, "length 1"),
            ({"src": [1], "dst": [2], "valid": [1]}, "booleans"),
            ({"src": [1], "dst": [2], "size": ["big"]}, "numbers"),
            ({"src": [True, 2], "dst": [3, 4]}, "got booleans"),
            ({"src": [1, 2], "dst": [0, False]}, "got booleans"),
            ({"src": [1, 2], "dst": [3, 4], "size": [100, True]}, "got booleans"),
            ({"src": [1], "dst": [2], "size": [99_999_999_999]}, "out-of-range sizes"),
            ({"src": [1], "dst": [2], "size": [MAX_PACKET_SIZE + 1]}, "out-of-range sizes"),
            ({"src": [1], "dst": [2], "size": [-1]}, "out-of-range sizes"),
            ({"src": [1], "dst": [2], "size": [1e10]}, "out-of-range sizes"),
            ({"src": [1], "dst": [2], "size": [float("inf")]}, "out-of-range sizes"),
            ({"src": [1], "dst": [2], "size": [100.5]}, "integral"),
            ({"src": [1], "dst": [2], "size": [float("nan")]}, "integral"),
            ({"src": [1, 2], "dst": [2, 3], "time": [0.5, float("nan")]}, "finite"),
            ({"src": [1], "dst": [2], "time": [float("inf")]}, "finite"),
            ({"src": [1], "dst": [2], "time": [float("-inf")]}, "finite"),
        ],
    )
    def test_rejections(self, batch, needle):
        with pytest.raises(BatchError) as excinfo:
            packet_batch_from_json(batch)
        assert needle in str(excinfo.value)

    def test_boundary_ids_accepted(self):
        trace = packet_batch_from_json({"src": [0], "dst": [MAX_ENDPOINT_ID]})
        assert trace.n_packets == 1

    @pytest.mark.parametrize("sizes", [[0, MAX_PACKET_SIZE], [64.0, 1500.0], [1, 0]])
    def test_boundary_and_integral_sizes_accepted(self, sizes):
        trace = packet_batch_from_json({"src": [0, 1], "dst": [1, 0], "size": sizes})
        assert trace.packets["size"].tolist() == [int(size) for size in sizes]
        assert trace.packets["src"].tolist() == [0, 1]


def _scenario_chunks(chunk_packets: int):
    scenario = get_scenario(SCENARIO)
    return list(ScenarioTraceSource(scenario, seed=0, chunk_packets=chunk_packets))


class TestJobEngine:
    """The push-driven engine folds exactly like a one-shot run."""

    def test_incremental_matches_one_shot(self):
        engine = JobEngine(_config())
        for chunk in _scenario_chunks(7_777):
            engine.ingest(chunk)
        one_shot = analyze_scenario(SCENARIO, N_VALID, seed=0)
        assert engine.windows_folded == one_shot.analysis.n_windows
        assert engine.result() == one_shot.analysis

    def test_detection_matches_one_shot(self):
        config = _config(detection={"detectors": ["cusum"], "quantity": "source_fanout"})
        engine = JobEngine(config)
        for chunk in _scenario_chunks(9_999):
            engine.ingest(chunk)
        one_shot = analyze_scenario(
            SCENARIO, N_VALID, seed=0, detectors=("cusum",), detect_quantity="source_fanout"
        )
        detection = engine.detection()
        assert detection is not None
        assert detection.alarms == one_shot.detection.alarms
        assert engine.alarms_raised == sum(
            len(a) for a in one_shot.detection.alarms.values()
        )

    def test_counters_and_buffering(self):
        engine = JobEngine(_config())
        chunk = _scenario_chunks(N_VALID // 2)[0]
        folded = engine.ingest(chunk)
        assert folded == 0
        assert engine.windows_folded == 0
        assert engine.packets_buffered == chunk.n_packets
        assert engine.packets_ingested == chunk.n_packets
        assert engine.batches_ingested == 1

    def test_result_before_any_window_raises(self):
        engine = JobEngine(_config())
        with pytest.raises(ValueError):
            engine.result()

    def test_no_detection_means_none(self):
        assert JobEngine(_config()).detection() is None


class TestJobRegistry:
    """The daemon's job table and its shutdown flush."""

    def test_duplicate_names_rejected(self):
        registry = JobRegistry()
        registry.add(_config())
        with pytest.raises(ValueError, match="already exists"):
            registry.add(_config())

    def test_unknown_job_raises(self):
        with pytest.raises(KeyError, match="no such job"):
            JobRegistry().get("nope")

    def test_status_shape(self):
        registry = JobRegistry()
        job = registry.add(_config())
        status = registry.status()
        assert status["n_jobs"] == 1
        (entry,) = status["jobs"]
        assert entry["name"] == "t"
        assert entry["config_hash"] == job.config_hash
        assert entry["windows_folded"] == 0
        assert entry["uptime_seconds"] >= 0

    def test_flush_stores_under_config_hash(self, tmp_path):
        registry = JobRegistry()
        job = registry.add(_config())
        for chunk in _scenario_chunks(10_000):
            job.engine.ingest(chunk)
        empty = registry.add(JobConfig.from_dict({"name": "empty"}))
        store = ResultStore(tmp_path / "store")
        keys = registry.flush(store)
        assert keys == [job.config_hash]
        payload = store.get(job.config_hash)
        assert payload["config_hash"] == job.config_hash
        assert payload["n_windows"] == job.engine.windows_folded
        assert payload["service_job"] == job.config.as_dict()
        pooled = payload["pooled"]["source_fanout"]
        one_shot = analyze_scenario(SCENARIO, N_VALID, seed=0).analysis
        assert pooled["values"] == one_shot.pooled("source_fanout").values.tolist()
        assert np.isfinite(pooled["values"]).all()
        assert empty.flush_payload() is None
