"""Resident streaming-analysis service: ``repro serve``.

Everything else in the reproduction is a one-shot run; this package makes
the engine a *resident process*.  A :class:`~repro.service.server.ServiceDaemon`
accepts newline-delimited JSON packet batches over an asyncio HTTP front
end and folds them incrementally through the exact same window-fold loop
(:func:`repro.streaming.pipeline.fold_windows`) that one-shot analyses and
campaign workers drive — so a daemon fed a scenario's packets in arbitrary
batches produces pooled output and alarm sequences **bit-identical** to
:func:`repro.scenarios.run.analyze_scenario` over the same stream.

The pieces:

* :mod:`repro.service.config` — declarative, versioned job configs
  (typed dataclass sections, ``version`` field, ``as_dict``/``from_dict``
  round-trip, all validation at load time with path-qualified errors);
* :mod:`repro.service.engine` — :class:`~repro.service.engine.JobEngine`,
  the push-driven incremental fold behind each job;
* :mod:`repro.service.jobs` — the in-daemon job registry and per-job
  status counters;
* :mod:`repro.service.server` — the asyncio HTTP daemon: ``/status``,
  job submission, batch ingestion (sequence-numbered and back-pressured),
  fault containment, and a graceful SIGTERM drain that flushes results to
  a :class:`~repro.campaigns.store.ResultStore`;
* :mod:`repro.service.checkpoint` — crash-safe durability: periodic
  atomic snapshots of each engine's exact fold state and ``--resume``
  recovery that, combined with idempotent replay of unacked batches,
  reproduces the uninterrupted run bit for bit.
"""

from repro._util.lazy import lazy_exports

__all__ = [
    "JOB_CONFIG_VERSION",
    "SNAPSHOT_FORMAT",
    "CheckpointPolicy",
    "DetectionSection",
    "Job",
    "JobCheckpointer",
    "JobConfig",
    "JobConfigError",
    "JobEngine",
    "JobRegistry",
    "LimitsSection",
    "ServiceDaemon",
    "SketchSection",
    "SourceSection",
    "StoreSection",
    "WindowSection",
    "load_job_config",
    "packet_batch_from_json",
    "resume_job",
    "serve",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".checkpoint": ("CheckpointPolicy", "JobCheckpointer", "resume_job"),
        ".config": (
            "JOB_CONFIG_VERSION", "DetectionSection", "JobConfig", "JobConfigError",
            "LimitsSection", "SketchSection", "SourceSection", "StoreSection", "WindowSection",
            "load_job_config",
        ),
        ".engine": ("SNAPSHOT_FORMAT", "JobEngine", "packet_batch_from_json"),
        ".jobs": ("Job", "JobRegistry"),
        ".server": ("ServiceDaemon", "serve"),
    },
)
