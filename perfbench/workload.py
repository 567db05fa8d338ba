"""Timed in-process workload, run in a fresh interpreter by ``run.py``.

Usage (internal): ``python3 perfbench/workload.py SPEC.json OUT.json``.
SPEC names the workload and its generated inputs; OUT receives timings,
peak memory, per-iteration output digests, and (traced runs) the tracer
snapshot.  Outputs to check are pickled next to OUT; the checks themselves
run in ``run.py`` outside this process, so reference computations never
inflate this process's peak memory.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import shutil
import sys
import time
from pathlib import Path

import numpy as np

import calibrate
import inputs

#: Wall time of every campaign cell, appended by the wrapper that
#: :func:`_time_cells` installs.
CELL_SECONDS: list[float] = []


def _digest_analysis(analysis) -> str:
    """Digest of every checked product of a ``WindowedAnalysis``."""
    digest = hashlib.sha256()
    for quantity in analysis.quantities:
        pooled = analysis.pooled(quantity)
        for array in (pooled.bin_edges, pooled.values, pooled.sigma):
            digest.update(np.asarray(array).tobytes())
        digest.update(str(int(pooled.total)).encode())
    digest.update(json.dumps(analysis.aggregates_table(), default=int).encode())
    for window in analysis.windows:
        for quantity in sorted(window.histograms):
            histogram = window.histograms[quantity]
            digest.update(histogram.degrees.tobytes())
            digest.update(histogram.counts.tobytes())
    return digest.hexdigest()


def peak_rss_mib() -> float:
    """Peak resident memory of this process plus its live child processes.

    Sums ``VmHWM`` (per-process high-water mark) over the process tree, so
    pool workers count with whatever they touched.
    """
    pids = [os.getpid()]
    for task in Path(f"/proc/{os.getpid()}/task").iterdir():
        try:
            pids += [int(p) for p in (task / "children").read_text().split()]
        except OSError:
            continue
    total_kib = 0
    for pid in pids:
        try:
            for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    total_kib += int(line.split()[1])
        except OSError:
            continue
    return total_kib / 1024.0


def _trace_iteration(spec: dict):
    from repro.streaming import analyze_trace

    kwargs = {}
    if spec.get("workers", 1) > 1:
        kwargs = {"backend": "process", "n_workers": spec["workers"]}
    started = time.perf_counter()
    analysis = analyze_trace(spec["trace"], spec["nv"], **kwargs)
    elapsed = time.perf_counter() - started
    return elapsed, [elapsed], 0, spec["packets"], analysis


def _time_cells() -> list[str]:
    """Time every campaign cell from outside the program.

    Wraps the runner's per-cell call (lease, analysis, store write, lease
    release) with a bare wall clock.  Returns a note when that call no
    longer exists; cells are then timed as the repetition's mean.
    """
    import functools

    import repro.campaigns.runner as runner

    inner = getattr(runner, "_claim_and_compute_cell", None)
    if inner is None:
        return ["repro.campaigns.runner:_claim_and_compute_cell not found; "
                "ingest_* is the mean cell time of each repetition"]

    @functools.wraps(inner)
    def timed(*args, **kwargs):
        started = time.perf_counter()
        try:
            return inner(*args, **kwargs)
        finally:
            CELL_SECONDS.append(time.perf_counter() - started)

    runner._claim_and_compute_cell = timed
    return []


def _campaign_iteration(spec: dict, store_root: Path, iteration: int):
    """One cold campaign: the six scenarios under one of the run's seeds."""
    from repro.campaigns import run_campaign

    seeds = spec["seeds"]
    campaign = inputs.campaign([seeds[iteration % len(seeds)]], spec["nv"])
    CELL_SECONDS.clear()
    started = time.perf_counter()
    run = run_campaign(campaign, str(store_root))
    elapsed = time.perf_counter() - started
    cell_s = list(CELL_SECONDS) or [elapsed / len(run.outcomes)] * len(run.outcomes)
    failed = sum(1 for o in run.outcomes if o.status != "computed")
    packets = sum(cell.scenario.n_packets for cell in campaign.cells())
    return elapsed, cell_s, failed, packets, run


def _loop(spec: dict, out_dir: Path, tag: str, budget_s: float, tracer=None) -> dict:
    """Repeat the workload until *budget_s* seconds of timed work are done.

    A reference-kernel bracket (``calibrate.py``) is timed before the first
    repetition and after each one, outside the timed region and outside
    any traced span.
    """
    timed = 0.0
    reps: list[dict] = []
    brackets = [calibrate.bracket()]
    packets = 0
    failed = 0
    attempted = 0
    digests = []
    iteration = 0
    # campaign repetitions run in whole cycles over the seeds, so every seed
    # weighs the same in the run's figures
    cycle = len(spec["seeds"]) if spec["workload"] == "campaign-cold" else 1
    while timed < budget_s or iteration % cycle:
        if tracer is not None:
            tracer.enter("run")
        if spec["workload"] == "campaign-cold":
            store = out_dir / f"store-{tag}-{iteration}"
            elapsed, op_s, n_failed, n_packets, output = _campaign_iteration(spec, store, iteration)
            attempted += len(output.outcomes)
            digests.append({"store": str(store), "seed": output.campaign.seeds[0]})
        else:
            elapsed, op_s, n_failed, n_packets, output = _trace_iteration(spec)
            attempted += 1
        if tracer is not None:
            tracer.exit()
        brackets.append(calibrate.bracket())
        timed += elapsed
        reps.append({"wall_s": elapsed, "packets": n_packets, "ops_ms": [s * 1e3 for s in op_s]})
        packets += n_packets
        failed += n_failed
        if spec["workload"] != "campaign-cold":
            digests.append(_digest_analysis(output))
            if iteration == 0:
                with open(out_dir / f"result-{tag}.pkl", "wb") as handle:
                    pickle.dump(output, handle, protocol=pickle.HIGHEST_PROTOCOL)
        iteration += 1
    return {
        "timed_s": timed,
        "reps": reps,
        "brackets": brackets,
        "packets": packets,
        "attempted": attempted,
        "failed": failed,
        "iterations": iteration,
        "outputs": digests,
    }


def main(spec_path: str, out_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    sys.path.insert(0, spec["src"])
    out_dir = Path(out_path).parent
    import repro.cli  # noqa: F401 - the import every CLI invocation pays

    notes = _time_cells() if spec["workload"] == "campaign-cold" else []

    # warm-up: lazy imports, page cache, first-call costs; never timed
    if spec["workload"] == "campaign-cold":
        from repro.campaigns import run_campaign

        warm = inputs.campaign([spec["seeds"][0] + 999], spec["nv"])
        warm_store = out_dir / "store-warmup"
        run_campaign(warm, str(warm_store), max_cells=1)
        shutil.rmtree(warm_store, ignore_errors=True)
    else:
        _trace_iteration(spec)

    report: dict = {"notes": notes}
    if spec["traced"]:
        import tracer as tracing

        half = spec["seconds"] / 2.0
        report["untraced"] = _loop(spec, out_dir, "untraced", half)
        tracer = tracing.Tracer()
        tracing.install(tracer)
        report["traced"] = _loop(spec, out_dir, "traced", half, tracer)
        if spec.get("parallel_workers"):
            # the process backend's parent side (streaming.parallel and
            # streaming.shm); its own share of the budget, kept out of
            # trace.overhead_pct
            parallel = {**spec, "workers": spec["parallel_workers"]}
            report["parallel"] = _loop(parallel, out_dir, "parallel", half / 4.0, tracer)
        report["snapshot"] = tracer.snapshot()
    else:
        report["untraced"] = _loop(spec, out_dir, "untraced", spec["seconds"])
        report["peak_rss_mib"] = peak_rss_mib()
    Path(out_path).write_text(json.dumps(report))
    from repro.streaming import shutdown_shared_pools

    shutdown_shared_pools()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
