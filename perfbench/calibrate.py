"""Machine-speed reference: a fixed kernel timed between repetitions.

On a shared VM the CPU runs at visibly different speeds for stretches of
10-30 s: the same ``analyze_trace`` call takes 0.45 s in one stretch and
0.70 s in the next, CPU time moves with wall time, and no steal time is
reported.  Runs of 10-30 s land in one or two such stretches, so longer
runs barely narrow the run-to-run spread of plain wall-clock figures.

The benchmark therefore times this kernel right before the first
repetition and right after every repetition, in the process that did the
work (the workload process, or the daemon through ``daemon.py``), and
reports each repetition's wall time scaled by ``REFERENCE_S / kernel
time``: figures read as if the machine ran the kernel in ``REFERENCE_S``.
The unscaled figures are printed too.

The kernel is the benchmark's own code and never calls the program, so a
change to the program cannot move it.  It mixes the three kinds of work
the workloads do: dict/set graph building (like ``networkx``), a JSON
decode (like the daemon's) and numpy sorting and counting (like the
kernel).

A bracket counts only while the program is idle.  :func:`measure` reports
the CPU time the rest of the process (other threads) and its child
processes used during the kernel; above ``BUSY_LIMIT_S`` the bracket is
invalid, because program work left running after the timed region would
slow the kernel and be credited to the program.  An invalid bracket is
retried; a repetition without a valid bracket on both sides is reported
unscaled, and the run prints how many were.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

#: Kernel time, in seconds, that scaled figures are normalised to (about
#: the kernel's time on a 2-vCPU cloud VM in a quiet stretch).
REFERENCE_S = 0.030

#: CPU time other threads and child processes may use during a bracket.
BUSY_LIMIT_S = 0.015

#: Kernel runs per bracket; the bracket is their fastest.
REPEATS = 3

_RNG = np.random.default_rng(20210517)
_SRC = _RNG.integers(0, 40_000, size=80_000).astype(np.int64)
_DST = _RNG.integers(0, 40_000, size=80_000).astype(np.int64)
_EDGES = list(zip(_SRC[:10_000].tolist(), _DST[:10_000].tolist()))
_RECORD = json.dumps({"src": _SRC[:4_000].tolist(), "time": (_DST[:4_000] * 1e-5).tolist()})


def kernel() -> int:
    """The fixed reference work; returns a checksum so nothing is skipped."""
    adjacency: dict[int, set] = {}
    for u, v in _EDGES:
        adjacency.setdefault(u, set()).add(v)
        adjacency.setdefault(v, set()).add(u)
    degrees = sorted(len(neighbours) for neighbours in adjacency.values())
    record = json.loads(_RECORD)
    keys = np.unique((_SRC << 32) | _DST)
    fanout = np.bincount(keys >> 32, minlength=40_000)
    order = np.argsort(_DST, kind="stable")
    return degrees[-1] + len(record["src"]) + int(fanout.max()) + int(order[0])


def _children_cpu_s() -> float:
    """CPU time of this process's live child processes, from ``/proc``."""
    total = 0
    for task in Path(f"/proc/{os.getpid()}/task").iterdir():
        try:
            children = (task / "children").read_text().split()
        except OSError:
            continue
        for pid in children:
            try:
                fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
            except OSError:
                continue
            total += int(fields[11]) + int(fields[12])  # utime, stime
    return total / os.sysconf("SC_CLK_TCK")


def measure() -> dict:
    """One bracket: ``{"kernel_s", "busy_s", "valid"}``.

    ``kernel_s`` is the fastest of ``REPEATS`` kernel runs (wall time);
    ``busy_s`` is the CPU time used meanwhile by other threads of this
    process and by its child processes.
    """
    process0, thread0, children0 = time.process_time(), time.thread_time(), _children_cpu_s()
    best = float("inf")
    for _ in range(REPEATS):
        started = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - started)
    own = time.thread_time() - thread0
    busy = (time.process_time() - process0 - own) + (_children_cpu_s() - children0)
    return {"kernel_s": best, "busy_s": busy, "valid": busy <= BUSY_LIMIT_S}


def bracket(attempts: int = 3, pause_s: float = 0.05) -> dict:
    """A valid bracket if one of *attempts* gives one, else the last, invalid."""
    for attempt in range(attempts):
        result = measure()
        if result["valid"]:
            return result
        if attempt + 1 < attempts:
            time.sleep(pause_s)
    return result


def factors(brackets: list[dict]) -> tuple[list[float], int]:
    """Per-repetition wall-time factors from the brackets around them.

    Repetition *i* lies between ``brackets[i]`` and ``brackets[i + 1]``;
    its factor is ``REFERENCE_S`` over the mean kernel time of the two.
    Returns ``(factors, n_unscaled)``; a repetition next to an invalid
    bracket gets factor 1 (unscaled).
    """
    out, unscaled = [], 0
    for before, after in zip(brackets, brackets[1:]):
        if before["valid"] and after["valid"]:
            out.append(REFERENCE_S / ((before["kernel_s"] + after["kernel_s"]) / 2.0))
        else:
            out.append(1.0)
            unscaled += 1
    return out, unscaled


if __name__ == "__main__":
    kernel()
    for _ in range(5):
        print(json.dumps(measure()))
