"""Shared configuration for the benchmark harness.

Every benchmark regenerates one table or figure of the paper (or one ablation
from DESIGN.md) and attaches the resulting rows to the pytest-benchmark
``extra_info`` so that ``pytest benchmarks/ --benchmark-only`` both times the
experiment and records what it produced.  Heavy experiment drivers are run
with ``rounds=1`` (they are experiments, not micro-benchmarks); the substrate
micro-benchmarks use pytest-benchmark's default calibration.
"""

from __future__ import annotations

import json
import os
import platform
from pathlib import Path

import numpy as np
import pytest

from repro.streaming.parallel import usable_cpu_count

REPO_ROOT = Path(__file__).resolve().parent.parent


def machine_metadata(timing: str) -> dict:
    """Machine/toolchain context recorded in every ``BENCH_*.json`` artifact.

    The perf trajectory compares numbers committed across PRs; without the
    CPU budget, platform, and library versions those comparisons are
    guesswork.  *timing* documents how the harness measured (e.g.
    ``"best-of-3 wall clock (time.perf_counter)"``) so best-of-k and
    single-shot artifacts are never conflated.
    """
    return {
        "cpu_count": os.cpu_count() or 1,
        "usable_cpus": usable_cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "timing": timing,
    }


@pytest.fixture()
def machine_meta():
    """The :func:`machine_metadata` helper, injectable into artifact writers."""
    return machine_metadata


@pytest.fixture()
def recording(request) -> bool:
    """Whether this run records the committed ``BENCH_*.json`` artifacts.

    True when test paths were named on the command line (``pytest
    benchmarks/...``, as the CI bench steps do).  A bare ``pytest`` from the
    root also collects this directory, but it neither rewrites the committed
    artifacts, and so the docs generated from them, nor asserts the
    machine-dependent timing claims those artifacts record.
    """
    return request.config.args_source == pytest.Config.ArgsSource.ARGS


@pytest.fixture()
def write_artifact(recording, tmp_path):
    """Write a ``BENCH_*.json`` report; returns the path it went to.

    The report goes to the repo root when :func:`recording`, otherwise to a
    temporary directory.
    """
    out_dir = REPO_ROOT if recording else tmp_path

    def _write(name: str, report: dict) -> Path:
        path = out_dir / name
        path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
        return path

    return _write


def attach_rows(benchmark, rows) -> None:
    """Record experiment output rows on the benchmark for the JSON report."""
    try:
        benchmark.extra_info["rows"] = json.loads(json.dumps(rows, default=str))
    except Exception:  # pragma: no cover - defensive: extra_info is best-effort
        benchmark.extra_info["rows"] = str(rows)


@pytest.fixture()
def run_once(benchmark):
    """Run an experiment driver exactly once under timing and return its result."""

    def _run(func, *args, **kwargs):
        result = benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)
        attach_rows(benchmark, result)
        return result

    return _run
