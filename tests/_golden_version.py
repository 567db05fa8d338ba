"""The ``SPEC_FORMAT_VERSION`` guard shared by the digest goldens.

A golden file records the ``SPEC_FORMAT_VERSION`` it was written under, next
to its digests.  Campaign content keys hash a phase's parameters and that
version, never the generated data, so output that moves at an unchanged
version would let a store serve cells computed by the old code.  Hence:

* a digest that differs from one recorded under the current version fails
  with a "bump SPEC_FORMAT_VERSION" message;
* ``--write`` refuses to rewrite a moved digest at an unchanged version,
  and records the current version with the new digests.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable

from repro.campaigns.spec import SPEC_FORMAT_VERSION

VERSION_KEY = "spec_format_version"


def load(path: Path, script: str) -> tuple[int, dict]:
    """``(recorded version, digests by case)`` of the golden file at *path*."""
    if not path.is_file():  # pragma: no cover - regeneration guard
        raise AssertionError(f"golden file {path} missing; regenerate with 'python {script} --write'")
    digests = json.loads(path.read_text(encoding="utf-8"))
    return digests.pop(VERSION_KEY), digests


def mismatch_message(case: str, recorded_version: int, script: str) -> str:
    """Why *case*'s output differing from its digest fails, and what to do."""
    if recorded_version == SPEC_FORMAT_VERSION:
        return (
            f"{case}: output moved off its golden digest at an unchanged "
            f"SPEC_FORMAT_VERSION={SPEC_FORMAT_VERSION}; if the change is deliberate, "
            f"bump SPEC_FORMAT_VERSION in repro/campaigns/spec.py, then run "
            f"'python {script} --write'"
        )
    return (
        f"{case}: output differs from its digest recorded under SPEC_FORMAT_VERSION="
        f"{recorded_version}; re-record under {SPEC_FORMAT_VERSION} with 'python {script} --write'"
    )


def write(path: Path, cases: dict[str, Callable[[], dict]], script: str) -> int:
    """Re-record every case of *cases* at *path*; the exit status of ``--write``.

    Refuses (status 1, nothing written) when a recorded digest moved and the
    file was written under the current ``SPEC_FORMAT_VERSION``.
    """
    recorded_version, recorded = load(path, script) if path.is_file() else (None, {})
    snapshot = {name: cases[name]() for name in sorted(cases)}
    moved = sorted(name for name, digest in snapshot.items() if name in recorded and recorded[name] != digest)
    for name in moved:
        print(f"moved: {name}")
    if moved and recorded_version == SPEC_FORMAT_VERSION:
        print(
            f"refusing to rewrite {len(moved)} moved digests at an unchanged "
            f"SPEC_FORMAT_VERSION={SPEC_FORMAT_VERSION}; bump it in repro/campaigns/spec.py first"
        )
        return 1
    path.write_text(
        json.dumps({VERSION_KEY: SPEC_FORMAT_VERSION, **snapshot}, indent=1) + "\n", encoding="utf-8"
    )
    print(f"wrote {path} ({len(snapshot)} cases, {len(moved)} moved, SPEC_FORMAT_VERSION={SPEC_FORMAT_VERSION})")
    return 0
