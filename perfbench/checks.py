"""Output checks: every run's outputs against references computed untimed.

Each ``check_*`` function returns a list of mismatch descriptions; an
empty list means the outputs are correct.  Float vectors are compared with
``tobytes()`` — the program's headline invariant is bit-identity, so
"close" is a failure.
"""

from __future__ import annotations

import numpy as np


def _same_bytes(a, b) -> bool:
    a = np.asarray(a)
    b = np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def compare_analyses(got, want, label: str) -> list[str]:
    """Pooled vectors, totals, aggregates and kept per-window histograms."""
    problems = []
    if tuple(got.quantities) != tuple(want.quantities):
        return [f"{label}: quantities {got.quantities} != {want.quantities}"]
    if got.n_windows != want.n_windows:
        return [f"{label}: {got.n_windows} windows, expected {want.n_windows}"]
    for quantity in want.quantities:
        mine, theirs = got.pooled(quantity), want.pooled(quantity)
        for part in ("bin_edges", "values", "sigma"):
            if not _same_bytes(getattr(mine, part), getattr(theirs, part)):
                problems.append(f"{label}: pooled {quantity}.{part} differs")
        if int(mine.total) != int(theirs.total):
            problems.append(f"{label}: pooled {quantity}.total {mine.total} != {theirs.total}")
    if got.aggregates_table() != want.aggregates_table():
        problems.append(f"{label}: Table-I aggregates differ")
    if len(got.windows) and len(want.windows):
        for index, (mine, theirs) in enumerate(zip(got.windows, want.windows)):
            for quantity, histogram in theirs.histograms.items():
                other = mine.histograms[quantity]
                if not (_same_bytes(other.degrees, histogram.degrees)
                        and _same_bytes(other.counts, histogram.counts)):
                    problems.append(f"{label}: window {index} {quantity} histogram differs")
                    break
    return problems


def oracle_analysis(trace_path, n_valid: int, quantities):
    """The trace analysed window by window through the sparse-matrix oracle."""
    from repro.streaming import WindowedAnalysis, analyze_window_image, iter_windows, load_trace

    trace = load_trace(trace_path)
    windows = tuple(analyze_window_image(w) for w in iter_windows(trace, n_valid))
    return WindowedAnalysis(n_valid=n_valid, windows=windows, quantities=tuple(quantities))


def compare_scenario_runs(got, want, label: str) -> list[str]:
    """A stored campaign cell against a direct ``analyze_scenario`` run."""
    problems = compare_analyses(got.analysis, want.analysis, label)
    got_alarms = None if got.detection is None else dict(got.detection.alarms)
    want_alarms = None if want.detection is None else dict(want.detection.alarms)
    if got_alarms != want_alarms:
        problems.append(f"{label}: alarm sequences differ")
    return problems


def compare_service_payload(payload: dict, want, label: str) -> list[str]:
    """A flushed service-job payload against a one-shot scenario run."""
    problems = []
    if payload.get("n_windows") != want.analysis.n_windows:
        return [f"{label}: {payload.get('n_windows')} windows, expected {want.analysis.n_windows}"]
    for quantity in want.analysis.quantities:
        entry = payload["pooled"].get(quantity)
        if entry is None:
            problems.append(f"{label}: pooled {quantity} missing")
            continue
        theirs = want.analysis.pooled(quantity)
        for part, dtype in (("bin_edges", np.int64), ("values", np.float64), ("sigma", np.float64)):
            if not _same_bytes(np.asarray(entry[part], dtype=dtype), getattr(theirs, part)):
                problems.append(f"{label}: pooled {quantity}.{part} differs")
        if int(entry["total"]) != int(theirs.total):
            problems.append(f"{label}: pooled {quantity}.total differs")
    got_alarms = {name: tuple(v) for name, v in payload.get("detection", {}).get("alarms", {}).items()}
    if got_alarms != dict(want.detection.alarms):
        problems.append(f"{label}: alarm sequences differ")
    return problems
