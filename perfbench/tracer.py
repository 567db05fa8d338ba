"""Span tracer wrapped around the program's layer boundaries from outside.

The program is not modified: :func:`install` replaces the public functions
and methods that mark each layer boundary with timing wrappers (every
module-level binding of a wrapped function is replaced, so ``from x import
f`` call sites are covered too).  Spans live in memory; only per-layer
totals are kept, which is all the per-layer metrics need:

* ``self`` time of a layer = its span time minus the time of child spans,
  so the self times of all layers plus the root's own self time (reported
  as ``other``) add up exactly to the traced wall time;
* counters (packets, bytes, windows, ...) are recorded at the same
  boundaries.

Only the thread and process that installed the tracer record spans.
Hooked calls from other threads of that process pass through untimed but
are counted per layer, and :func:`notes` names them, so a layer whose work
moves to a helper thread cannot silently read zero.  Forked pool workers
are not traced.  A hook whose target no longer exists in the program is
skipped and named by :func:`notes`; its metrics read zero.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from collections import Counter, defaultdict

#: Per-layer metric names, in the order ``BENCHMARK.json`` lists them.
LAYER_SECONDS = {
    "generators": "generators.s",
    "source": "source.s",
    "trace_io": "trace_io.s",
    "window": "window.s",
    "kernel": "kernel.s",
    "pooling": "pooling.s",
    "fold": "fold.s",
    "detect": "detect.s",
    "parallel.pack": "parallel.pack_s",
    "parallel.publish": "parallel.publish_s",
    "parallel.wait": "parallel.wait_s",
    "store.put": "store.put_s",
    "store.lease": "store.lease_s",
    "runner": "runner.s",
    "decode": "decode.s",
    "engine": "engine.s",
    "checkpoint": "checkpoint.s",
    "server": "server.s",
}


class Tracer:
    """Self-time and counter accumulator over nested spans."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.thread = threading.get_ident()
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.off_thread: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[list] = []  # [name, start_ns, child_ns]
        self._lock = threading.Lock()

    def active(self, name: str) -> bool:
        """Whether the calling thread records spans.

        A call into layer *name* from another thread of this process is
        counted in ``off_thread`` instead.
        """
        if threading.get_ident() == self.thread and os.getpid() == self.pid:
            return True
        if os.getpid() == self.pid:
            with self._lock:
                self.off_thread[name] += 1
        return False

    def enter(self, name: str) -> None:
        self._stack.append([name, time.perf_counter_ns(), 0])

    def exit(self) -> int:
        """Close the innermost span; returns its duration in ns."""
        name, start, child = self._stack.pop()
        duration = time.perf_counter_ns() - start
        self.self_ns[name] += duration - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += duration
        return duration

    def open_layers(self) -> list[str]:
        """Names of the spans currently open, outermost first."""
        return [frame[0] for frame in self._stack]

    def snapshot(self) -> dict:
        """Totals so far (open spans are not included)."""
        return {
            "self_s": {name: ns / 1e9 for name, ns in self.self_ns.items()},
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "off_thread": dict(self.off_thread),
            "missing": list(self.missing),
        }


def _wrap_call(tracer: Tracer, name: str, func, after=None):
    @functools.wraps(func)
    def traced(*args, **kwargs):
        if not tracer.active(name):
            return func(*args, **kwargs)
        tracer.enter(name)
        try:
            result = func(*args, **kwargs)
        finally:
            tracer.exit()
        if after is not None:
            after(tracer, args, result)
        return result

    return traced


class TracedIter:
    """Iterator proxy timing every ``next()`` as one span of *name*."""

    def __init__(self, tracer: Tracer, name: str, iterator, on_item=None) -> None:
        self._tracer = tracer
        self._name = name
        self._it = iter(iterator)
        self._on_item = on_item

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self._tracer
        if not tracer.active(self._name):
            return next(self._it)
        tracer.enter(self._name)
        try:
            item = next(self._it)
        finally:
            tracer.exit()
        if self._on_item is not None:
            self._on_item(tracer, item)
        return item


def _replace_everywhere(original, replacement) -> None:
    """Rebind every ``repro`` module global that is *original*."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _resolve(path: str):
    """``"pkg.mod:Class.attr"`` → (owner, attr name, current value) or None."""
    import importlib

    module_name, _, qual = path.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = qual.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, attr):
        return None
    return owner, attr, getattr(owner, attr)


def _hook_function(tracer: Tracer, path: str, name: str, after=None) -> bool:
    found = _resolve(path)
    if found is None:
        return False
    _owner, _attr, func = found
    _replace_everywhere(func, _wrap_call(tracer, name, func, after))
    return True


def _hook_method(tracer: Tracer, path: str, name: str, after=None) -> bool:
    found = _resolve(path)
    if found is None:
        return False
    owner, attr, func = found
    raw = vars(owner).get(attr, func)
    if isinstance(raw, staticmethod):
        setattr(owner, attr, staticmethod(_wrap_call(tracer, name, raw.__func__, after)))
    else:
        setattr(owner, attr, _wrap_call(tracer, name, func, after))
    return True


def _hook_iterator(tracer: Tracer, path: str, name: str, on_item=None, method=False) -> bool:
    found = _resolve(path)
    if found is None:
        return False
    owner, attr, func = found

    @functools.wraps(func)
    def traced(*args, **kwargs):
        return TracedIter(tracer, name, func(*args, **kwargs), on_item)

    if method:
        setattr(owner, attr, traced)
    else:
        _replace_everywhere(func, traced)
    return True


# -- counters recorded at the boundaries ----------------------------------------


def _count_edges(tracer, _args, edges):
    tracer.counts["generators.edges"] += int(edges.shape[0])


def _count_source(tracer, chunk):
    tracer.counts["source.pkts"] += int(chunk.n_packets)


def _count_trace_io(tracer, chunk):
    tracer.counts["trace_io.chunks"] += 1
    tracer.counts["trace_io.bytes"] += int(chunk.packets.nbytes)


def _count_windows(tracer, args, windows):
    tracer.counts["window.windows"] += len(windows)
    pusher = args[0]
    high = int(getattr(pusher, "max_buffered_packets", 0))
    if high > tracer.counts["window.max_buffered_pkts"]:
        tracer.counts["window.max_buffered_pkts"] = high


def _count_kernel(tracer, _args, products):
    tracer.counts["kernel.pkts"] += int(products[0].valid_packets)


def _count_folded(tracer, _args, _result):
    tracer.counts["fold.windows"] += 1


def _count_pack(tracer, _args, payload):
    tracer.counts["parallel.bytes"] += sum(int(a.nbytes) for a in payload if a is not None)


def _count_task(tracer, _item):
    tracer.counts["parallel.tasks"] += 1


def _count_dump(tracer, _args, payload_bytes):
    layer = "checkpoint" if "checkpoint" in tracer.open_layers() else "store"
    tracer.counts[f"{layer}.bytes"] += len(payload_bytes)


def _count_attempts(tracer, _args, result):
    tracer.counts["runner.attempts"] += int(result.get("attempts", 0) or 0)


def _count_decoded(tracer, _args, trace):
    tracer.counts["decode.pkts"] += int(trace.n_packets)


def install(tracer: Tracer, *, service: bool = False) -> list[str]:
    """Wrap every layer boundary; returns the hooks that were not found."""
    import repro.cli  # noqa: F401 - load every module the hooks may rebind

    hooks = [
        ("function", "repro.scenarios.families:build_family_edges", "generators", _count_edges),
        ("iter-method", "repro.scenarios.source:ScenarioTraceSource.__iter__", "source", _count_source),
        ("iter", "repro.streaming.trace_io:iter_trace_chunks", "trace_io", _count_trace_io),
        ("method", "repro.streaming.window:PushWindower.push", "window", _count_windows),
        ("function", "repro.streaming.kernel:window_products", "kernel", _count_kernel),
        ("function", "repro.streaming.kernel:payload_products", "kernel", _count_kernel),
        ("function", "repro.analysis.pooling:pool_differential_cumulative", "pooling", None),
        ("method", "repro.streaming.pipeline:StreamAnalyzer.update", "fold", _count_folded),
        ("method", "repro.analysis.phases:PhaseSegmentedAnalyzer.update", "fold", None),
        ("method", "repro.detect.analyzer:DetectingAnalyzer.update", "detect", None),
        ("function", "repro.streaming.kernel:window_payload", "parallel.pack", _count_pack),
        ("function", "repro.streaming.shm:publish_payloads", "parallel.publish", None),
        ("iter-method", "repro.streaming.parallel:ProcessBackend.map", "parallel.wait", _count_task),
        ("method", "repro.campaigns.store:ResultStore.put", "store.put", None),
        ("method", "repro.campaigns.store:ResultStore.acquire_lease", "store.lease", None),
        ("method", "repro.campaigns.store:ResultStore.release_lease", "store.lease", None),
        ("counter", "repro.campaigns.store:ResultStore._dump_payload", None, _count_dump),
        ("function", "repro.campaigns.runner:_claim_and_compute_cell", "runner", _count_attempts),
    ]
    if service:
        hooks += [
            ("function", "repro.service.engine:packet_batch_from_json", "decode", _count_decoded),
            ("method", "repro.service.engine:JobEngine.ingest", "engine", None),
            ("method", "repro.service.checkpoint:JobCheckpointer.checkpoint", "checkpoint", None),
            ("method", "repro.service.server:ServiceDaemon._route", "server", None),
            ("method", "repro.service.server:ServiceDaemon._respond", "server", None),
        ]
    missing = []
    for kind, path, name, after in hooks:
        if kind == "function":
            ok = _hook_function(tracer, path, name, after)
        elif kind == "counter":
            ok = _hook_counter(tracer, path, after)
        elif kind == "method":
            ok = _hook_method(tracer, path, name, after)
        elif kind == "iter":
            ok = _hook_iterator(tracer, path, name, after)
        else:
            ok = _hook_iterator(tracer, path, name, after, method=True)
        if not ok:
            missing.append(path)
    if service:
        _hook_json_decode(tracer)
    tracer.missing = missing
    return missing


def _hook_counter(tracer: Tracer, path: str, after) -> bool:
    """Count at a boundary without opening a span (e.g. payload bytes)."""
    found = _resolve(path)
    if found is None:
        return False
    owner, attr, func = found
    raw = vars(owner).get(attr, func)
    inner = raw.__func__ if isinstance(raw, staticmethod) else func

    @functools.wraps(inner)
    def counted(*args, **kwargs):
        result = inner(*args, **kwargs)
        if tracer.active(attr):
            after(tracer, args, result)
        return result

    setattr(owner, attr, staticmethod(counted) if isinstance(raw, staticmethod) else counted)
    return True


def _hook_json_decode(tracer: Tracer) -> None:
    """Time the daemon's per-line ``json.loads`` as part of ``decode``."""
    import types

    import repro.service.server as server

    original = server.json
    proxy = types.ModuleType("json")
    proxy.__dict__.update(vars(original))
    proxy.loads = _wrap_call(tracer, "decode", original.loads)
    server.json = proxy


def layer_metrics(snapshot: dict, wall_s: float) -> dict:
    """Per-layer metric values from a tracer snapshot over *wall_s* seconds.

    ``other.s`` is the traced wall time no layer claims, so the self times
    plus ``other.s`` add up to ``wall_s``.
    """
    self_s = snapshot["self_s"]
    calls = snapshot["calls"]
    counts = snapshot["counts"]
    metrics = {metric: float(self_s.get(layer, 0.0)) for layer, metric in LAYER_SECONDS.items()}
    claimed = sum(metrics.values())
    metrics["other.s"] = float(wall_s - claimed)
    metrics["traced.wall_s"] = float(wall_s)
    metrics["generators.calls"] = calls.get("generators", 0)
    metrics["generators.edges"] = counts.get("generators.edges", 0)
    metrics["source.pkts"] = counts.get("source.pkts", 0)
    metrics["trace_io.bytes"] = counts.get("trace_io.bytes", 0)
    metrics["trace_io.chunks"] = counts.get("trace_io.chunks", 0)
    metrics["window.windows"] = counts.get("window.windows", 0)
    metrics["window.max_buffered_pkts"] = counts.get("window.max_buffered_pkts", 0)
    metrics["kernel.calls"] = calls.get("kernel", 0)
    metrics["kernel.pkts"] = counts.get("kernel.pkts", 0)
    metrics["kernel.ns_per_pkt"] = _per(self_s.get("kernel", 0.0), counts.get("kernel.pkts", 0))
    metrics["pooling.calls"] = calls.get("pooling", 0)
    metrics["fold.windows"] = counts.get("fold.windows", 0)
    metrics["parallel.bytes"] = counts.get("parallel.bytes", 0)
    metrics["parallel.tasks"] = counts.get("parallel.tasks", 0)
    metrics["store.bytes"] = counts.get("store.bytes", 0)
    metrics["runner.attempts"] = counts.get("runner.attempts", 0)
    metrics["decode.ns_per_pkt"] = _per(self_s.get("decode", 0.0), counts.get("decode.pkts", 0))
    metrics["checkpoint.count"] = calls.get("checkpoint", 0)
    metrics["checkpoint.bytes"] = counts.get("checkpoint.bytes", 0)
    return metrics


def _per(seconds: float, n: int) -> float:
    return seconds * 1e9 / n if n else 0.0


def diff_snapshots(after: dict, before: dict) -> dict:
    """Totals accumulated between two snapshots."""
    out = {"missing": after["missing"]}
    for part in ("self_s", "calls", "counts", "off_thread"):
        out[part] = {
            key: value - before[part].get(key, 0)
            for key, value in after[part].items()
        }
    # a high-water mark is not additive
    high = after["counts"].get("window.max_buffered_pkts")
    if high is not None:
        out["counts"]["window.max_buffered_pkts"] = high
    return out


def notes(snapshot: dict) -> list[str]:
    """Warnings a reader of the per-layer metrics must see."""
    lines = [f"trace hook {path} not found; its metrics read 0" for path in snapshot["missing"]]
    lines += [
        f"{n} calls into layer {layer!r} ran off the traced thread; their time is not in {layer}"
        for layer, n in sorted(snapshot["off_thread"].items()) if n
    ]
    return lines


def dump(tracer: Tracer, path: str) -> None:
    """Write the tracer's snapshot as JSON (atomic rename)."""
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(tracer.snapshot(), handle)
    os.replace(tmp, path)
