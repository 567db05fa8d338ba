"""Declarative, versioned job configurations for the service daemon.

A *job config* describes one resident analysis job the daemon runs: the
windowing and analysis tier, optional online detection, an optional
declared packet source (used by ``repro jobs feed`` and recorded in the
config hash), and where to flush results on shutdown.  The design follows
the nested typed-section pattern of streaming-job frameworks (one frozen
dataclass per concern, a top-level ``version`` field, a lossless
``as_dict()``/``from_dict()`` round-trip) with this repo's registration-time
validation discipline: **everything** a run would need is checked when the
config is built, and every error is path-qualified
(``job 'x': window.n_valid: ...``) so a malformed config fails at submit
time with an actionable message, never mid-stream.

``JobConfig.config_hash()`` is a SHA-256 over the canonical dict form —
the job's identity for the ``/status`` endpoint and its content key in the
result store, reusing the same hashing primitive as campaign cells.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Mapping, Union

from repro.detect.detectors import DETECTOR_NAMES
from repro.streaming.aggregates import QUANTITY_NAMES
from repro.streaming.pipeline import MODE_NAMES
from repro.streaming.sketch import SketchConfig

__all__ = [
    "JOB_CONFIG_VERSION",
    "DetectionSection",
    "JobConfig",
    "JobConfigError",
    "LimitsSection",
    "SketchSection",
    "SourceSection",
    "StoreSection",
    "WindowSection",
    "load_job_config",
]

#: Version of the job-config schema this build reads and writes.  A config
#: carrying any other ``version`` is rejected at load time — the daemon
#: never guesses at the meaning of fields from another era.
JOB_CONFIG_VERSION = 1


class JobConfigError(ValueError):
    """A job config failed validation; the message is path-qualified."""


def _fail(path: str, message: str) -> "JobConfigError":
    return JobConfigError(f"{path}: {message}")


def _check_int(value, path: str, *, minimum: int | None = None) -> int:
    """*value* as a plain int (bools rejected), optionally floor-checked."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise _fail(path, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise _fail(path, f"must be >= {minimum}, got {value}")
    return int(value)


def _check_names(values, path: str, valid: tuple, what: str) -> tuple:
    """*values* as a tuple of known names drawn from *valid*."""
    if isinstance(values, str) or not isinstance(values, (list, tuple)):
        raise _fail(path, f"expected a list of {what} names, got {values!r}")
    names = tuple(values)
    unknown = [name for name in names if name not in valid]
    if unknown:
        raise _fail(path, f"unknown {what}(s) {unknown}; valid: {list(valid)}")
    return names


@dataclass(frozen=True)
class WindowSection:
    """Windowing and analysis-tier knobs of one job.

    Mirrors the corresponding :func:`repro.streaming.pipeline.analyze_trace`
    parameters: window size ``N_V`` in valid packets, the Figure-1
    quantities to histogram, and the per-window tier (``"exact"`` or
    ``"sketch"``).
    """

    n_valid: int = 5_000
    quantities: tuple = tuple(QUANTITY_NAMES)
    mode: str = "exact"

    def validate(self, path: str = "window") -> None:
        """Raise a path-qualified :class:`JobConfigError` on any bad field."""
        _check_int(self.n_valid, f"{path}.n_valid", minimum=1)
        quantities = _check_names(
            self.quantities, f"{path}.quantities", tuple(QUANTITY_NAMES), "quantity"
        )
        if not quantities:
            raise _fail(f"{path}.quantities", "must name at least one quantity")
        if len(set(quantities)) != len(quantities):
            raise _fail(f"{path}.quantities", f"duplicate quantity names in {list(quantities)}")
        if self.mode not in MODE_NAMES:
            raise _fail(f"{path}.mode", f"unknown mode {self.mode!r}; valid: {list(MODE_NAMES)}")


@dataclass(frozen=True)
class SketchSection:
    """Sketch-tier accuracy knobs (meaningful only when ``window.mode="sketch"``).

    ``None`` fields fall back to the
    :data:`~repro.streaming.sketch.DEFAULT_SKETCH_CONFIG` defaults.
    """

    epsilon: float | None = None
    delta: float | None = None
    seed: int | None = None

    def overrides(self) -> dict:
        """The non-default knobs as a kwargs dict for :class:`SketchConfig`."""
        out = {}
        for name in ("epsilon", "delta", "seed"):
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        return out

    def to_sketch_config(self) -> SketchConfig | None:
        """The implied :class:`SketchConfig`, or ``None`` when untouched."""
        overrides = self.overrides()
        return SketchConfig(**overrides) if overrides else None

    def validate(self, path: str = "sketch") -> None:
        """Raise a path-qualified :class:`JobConfigError` on any bad field."""
        if self.epsilon is not None and not isinstance(self.epsilon, (int, float)):
            raise _fail(f"{path}.epsilon", f"expected a number, got {self.epsilon!r}")
        if self.delta is not None and not isinstance(self.delta, (int, float)):
            raise _fail(f"{path}.delta", f"expected a number, got {self.delta!r}")
        if self.seed is not None:
            _check_int(self.seed, f"{path}.seed")
        try:
            self.to_sketch_config()
        except (TypeError, ValueError) as error:
            raise _fail(path, str(error)) from error


@dataclass(frozen=True)
class DetectionSection:
    """Online drift detection riding the job's fold (empty = no detection)."""

    detectors: tuple = ()
    quantity: str | None = None

    def validate(self, path: str = "detection") -> None:
        """Raise a path-qualified :class:`JobConfigError` on any bad field."""
        _check_names(self.detectors, f"{path}.detectors", tuple(DETECTOR_NAMES), "detector")
        if self.quantity is not None:
            if not self.detectors:
                raise _fail(f"{path}.quantity", "was given but detectors is empty")
            if self.quantity not in QUANTITY_NAMES:
                raise _fail(
                    f"{path}.quantity",
                    f"unknown quantity {self.quantity!r}; valid: {list(QUANTITY_NAMES)}",
                )


@dataclass(frozen=True)
class SourceSection:
    """The packet source this job *expects* (declarative, not enforced).

    The daemon folds whatever batches clients send, and no command reads
    this section — ``repro jobs feed`` takes its scenario from
    ``--scenario``.  Like ``store.root`` it is validated and hashed, so the
    job's config hash pins what the stored result claims to be.  A ``None``
    scenario means "live traffic" — any well-formed batches.
    """

    scenario: str | None = None
    seed: int = 0
    block_packets: int | None = None

    def validate(self, path: str = "source") -> None:
        """Raise a path-qualified :class:`JobConfigError` on any bad field."""
        if self.scenario is not None:
            from repro.scenarios import get_scenario

            if not isinstance(self.scenario, str):
                raise _fail(f"{path}.scenario", f"expected a name, got {self.scenario!r}")
            try:
                get_scenario(self.scenario)
            except KeyError as error:
                raise _fail(f"{path}.scenario", str(error.args[0])) from error
        _check_int(self.seed, f"{path}.seed")
        if self.block_packets is not None:
            _check_int(self.block_packets, f"{path}.block_packets", minimum=1)


@dataclass(frozen=True)
class StoreSection:
    """Where the job's final analysis is flushed on finish/shutdown.

    ``root=None`` keeps results in memory only (they are returned by the
    finish endpoint but lost when the daemon exits).
    """

    root: str | None = None

    def validate(self, path: str = "store") -> None:
        """Raise a path-qualified :class:`JobConfigError` on any bad field."""
        if self.root is not None and not isinstance(self.root, str):
            raise _fail(f"{path}.root", f"expected a path string, got {self.root!r}")


@dataclass(frozen=True)
class LimitsSection:
    """Per-job ingest back-pressure limits.

    ``max_buffered_packets`` caps how many packets may sit buffered toward
    the next incomplete window before the daemon answers ingests with
    HTTP 429 (``Retry-After``) instead of growing without bound.  ``None``
    defers to the daemon-wide ``--max-buffered-packets`` default (which may
    itself be unlimited).
    """

    max_buffered_packets: int | None = None

    def validate(self, path: str = "limits") -> None:
        """Raise a path-qualified :class:`JobConfigError` on any bad field."""
        if self.max_buffered_packets is not None:
            _check_int(self.max_buffered_packets, f"{path}.max_buffered_packets", minimum=1)


#: ``section name -> section type`` of the nested config layout.
_SECTIONS = {
    "window": WindowSection,
    "sketch": SketchSection,
    "detection": DetectionSection,
    "source": SourceSection,
    "store": StoreSection,
    "limits": LimitsSection,
}


@dataclass(frozen=True)
class JobConfig:
    """One resident analysis job, fully validated at construction.

    The top-level object of the job-config schema: a ``name`` (the job's
    URL path segment on the daemon), the schema ``version``, and one typed
    section per concern.  Construction runs every section's ``validate``
    with the job name woven into the error path, so a bad config can never
    reach a running engine.
    """

    name: str
    version: int = JOB_CONFIG_VERSION
    window: WindowSection = field(default_factory=WindowSection)
    sketch: SketchSection = field(default_factory=SketchSection)
    detection: DetectionSection = field(default_factory=DetectionSection)
    source: SourceSection = field(default_factory=SourceSection)
    store: StoreSection = field(default_factory=StoreSection)
    limits: LimitsSection = field(default_factory=LimitsSection)

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise JobConfigError(f"job name must be a non-empty string, got {self.name!r}")
        if not all(c.isalnum() or c in "._-" for c in self.name):
            raise JobConfigError(
                f"job {self.name!r}: name may only contain letters, digits, '.', '_', '-' "
                "(it becomes a URL path segment)"
            )
        prefix = f"job {self.name!r}"
        if self.version != JOB_CONFIG_VERSION:
            raise _fail(
                f"{prefix}: version",
                f"unsupported job-config version {self.version!r}; "
                f"this build reads version {JOB_CONFIG_VERSION}",
            )
        for section_name, section_type in _SECTIONS.items():
            section = getattr(self, section_name)
            if not isinstance(section, section_type):
                raise _fail(
                    f"{prefix}: {section_name}",
                    f"expected a {section_type.__name__}, got {type(section).__name__}",
                )
            section.validate(f"{prefix}: {section_name}")
        if self.window.mode != "sketch" and self.sketch.overrides():
            raise _fail(
                f"{prefix}: sketch",
                "sketch knobs were supplied but window.mode is 'exact'",
            )
        # normalise list-built sections so as_dict/from_dict round-trips and
        # equal configs hash equally regardless of sequence type
        object.__setattr__(
            self, "window",
            WindowSection(self.window.n_valid, tuple(self.window.quantities), self.window.mode),
        )
        object.__setattr__(
            self, "detection",
            DetectionSection(tuple(dict.fromkeys(self.detection.detectors)), self.detection.quantity),
        )

    def as_dict(self) -> dict:
        """The config as plain JSON-serialisable data (lossless round-trip).

        ``JobConfig.from_dict(config.as_dict()) == config`` always holds;
        tuples become lists under JSON and are re-normalised on the way in.
        """
        data = asdict(self)
        data["window"]["quantities"] = list(self.window.quantities)
        data["detection"]["detectors"] = list(self.detection.detectors)
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "JobConfig":
        """Build and validate a config from plain data (strict about keys).

        Unknown top-level or section keys are rejected with the offending
        path — a typoed knob must never be silently ignored.
        """
        if not isinstance(data, Mapping):
            raise JobConfigError(f"job config must be a JSON object, got {type(data).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise JobConfigError(f"unknown job-config key(s) {unknown}; valid: {sorted(known)}")
        if "name" not in data:
            raise JobConfigError("job config must carry a 'name'")
        kwargs: dict = {}
        for key in ("name", "version"):
            if key in data:
                kwargs[key] = data[key]
        for section_name, section_type in _SECTIONS.items():
            if section_name not in data:
                continue
            section_data = data[section_name]
            if not isinstance(section_data, Mapping):
                raise _fail(section_name, f"expected an object, got {section_data!r}")
            section_fields = {f.name for f in fields(section_type)}
            bad = sorted(set(section_data) - section_fields)
            if bad:
                raise _fail(
                    f"{section_name}.{bad[0]}",
                    f"unknown key (valid: {sorted(section_fields)})",
                )
            values = dict(section_data)
            if section_name == "window" and isinstance(values.get("quantities"), list):
                values["quantities"] = tuple(values["quantities"])
            if section_name == "detection" and isinstance(values.get("detectors"), list):
                values["detectors"] = tuple(values["detectors"])
            kwargs[section_name] = section_type(**values)
        return cls(**kwargs)

    def config_hash(self) -> str:
        """SHA-256 content key of the canonical config (the job's identity)."""
        from repro.campaigns.spec import content_key

        return content_key({"service_job": self.as_dict()})

    def sketch_config(self) -> SketchConfig | None:
        """The job's :class:`SketchConfig` (``None`` in exact mode)."""
        if self.window.mode != "sketch":
            return None
        return self.sketch.to_sketch_config() or SketchConfig()


def load_job_config(path: Union[str, os.PathLike]) -> JobConfig:
    """Read and validate a job-config JSON file.

    Raises :class:`JobConfigError` with the file path woven in when the
    file is missing, is not valid JSON, or fails schema validation.
    """
    file = Path(path)
    try:
        text = file.read_text(encoding="utf-8")
    except OSError as error:
        raise JobConfigError(f"cannot read job config {file}: {error.strerror or error}") from error
    try:
        data = json.loads(text)
    except json.JSONDecodeError as error:
        raise JobConfigError(f"job config {file} is not valid JSON: {error}") from error
    try:
        return JobConfig.from_dict(data)
    except JobConfigError as error:
        raise JobConfigError(f"job config {file}: {error}") from None
