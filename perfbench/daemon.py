"""``repro serve`` behind a benchmark launcher: reference brackets and, optionally, spans.

Usage (internal)::

    python3 perfbench/daemon.py OUT_PREFIX TRACE SERVE_ARGS...

Each SIGUSR2 times one reference-kernel bracket (``calibrate.py``) on the
daemon's own main thread and writes it to ``OUT_PREFIX.cal.<n>.json``
(n = 1, 2, ...).  The client sends it only between passes, when the
daemon is idle: the handler runs while the event loop waits for input.
With TRACE = 1 the daemon's layer boundaries are wrapped as well, and each
SIGUSR1 writes the tracer's running totals to ``OUT_PREFIX.<n>.json``, so
the client can difference two snapshots taken around its timed window.
Everything else is the stock ``repro serve`` command line.
"""

from __future__ import annotations

import json
import os
import signal
import sys
from pathlib import Path


def _write(path: str, payload: dict) -> None:
    """Write *payload* so the client never reads a half-written file."""
    tmp = f"{path}.tmp"
    Path(tmp).write_text(json.dumps(payload))
    os.replace(tmp, path)


def main(argv: list[str]) -> int:
    here = Path(__file__).resolve().parent
    sys.path.insert(0, str(here.parent / "src"))
    sys.path.insert(0, str(here))
    import calibrate

    prefix, traced, serve_args = argv[0], argv[1] == "1", argv[2:]
    brackets = [0]

    def reference(_signum, _frame) -> None:
        brackets[0] += 1
        _write(f"{prefix}.cal.{brackets[0]}.json", calibrate.bracket())

    signal.signal(signal.SIGUSR2, reference)
    if traced:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer, service=True)
        snapshots = [0]

        def snapshot(_signum, _frame) -> None:
            snapshots[0] += 1
            tracing.dump(tracer, f"{prefix}.{snapshots[0]}.json")

        signal.signal(signal.SIGUSR1, snapshot)
    from repro.cli import main as repro_main

    return repro_main(["serve", *serve_args])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
