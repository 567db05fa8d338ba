#!/usr/bin/env python3
"""The repository benchmark: one workload per invocation, one JSON result line.

Usage, from the repository root::

    python3 perfbench/run.py --workload campaign-cold --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` runs the workload half untraced, half with the layer
boundaries wrapped (``perfbench/tracer.py``) and reports the per-layer
metrics, the time no layer claims (``other.s``) and the tracing overhead.
Every run checks the program's outputs against references computed outside
the timed region and prints, as its last stdout line, a JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--smoke`` shrinks every input so a run takes seconds (the benchmark's own
tests use it).  Inputs are generated from ``--seed``; generated files and
results go under ``perfbench/out/`` only.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import pickle
import platform
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "out"

WORKLOADS = ("campaign-cold", "trace-analyze", "service-ingest")

#: Pool size of the process-backend pass in traced ``trace-analyze`` runs.
PARALLEL_WORKERS = 2

#: Fresh interpreters (or daemons) started per run to measure set-up time.
SETUP_SAMPLES = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "pkts_per_s": "packets/s",
    "peak_rss_mib": "MiB",
    "ok_ratio": "ratio",
    "ingest_p50_ms": "ms",
    "ingest_tail_ms": "ms",
}

PER_LAYER_UNITS = {
    "import.repro_s": "s", "import.scipy_s": "s", "import.networkx_s": "s", "import.total_s": "s",
    "generators.s": "s", "generators.calls": "count", "generators.edges": "count",
    "source.s": "s", "source.pkts": "packets",
    "trace_io.s": "s", "trace_io.bytes": "bytes", "trace_io.chunks": "count",
    "window.s": "s", "window.windows": "count", "window.max_buffered_pkts": "packets",
    "kernel.s": "s", "kernel.calls": "count", "kernel.pkts": "packets", "kernel.ns_per_pkt": "ns/packet",
    "pooling.s": "s", "pooling.calls": "count",
    "fold.s": "s", "fold.windows": "count",
    "detect.s": "s", "detect.alarms": "count",
    "parallel.pack_s": "s", "parallel.publish_s": "s", "parallel.bytes": "bytes",
    "parallel.wait_s": "s", "parallel.tasks": "count",
    "store.put_s": "s", "store.bytes": "bytes", "store.lease_s": "s",
    "runner.s": "s", "runner.attempts": "count",
    "decode.s": "s", "decode.ns_per_pkt": "ns/packet", "engine.s": "s",
    "checkpoint.s": "s", "checkpoint.count": "count", "checkpoint.bytes": "bytes",
    "server.s": "s", "server.busy_share": "ratio", "server.rejected": "count",
    "service.status_p50_ms": "ms", "service.status_tail_ms": "ms", "service.probe_lag_ms": "ms",
    "other.s": "s", "traced.wall_s": "s", "trace.overhead_pct": "%",
}


class BenchError(RuntimeError):
    """The benchmark could not run (missing program, failed start-up, ...)."""


# --------------------------------------------------------------------------
# helpers
# --------------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.setdefault("PYTHONHASHSEED", "0")
    return env


def tail(values: list[float]) -> tuple[float, float, int]:
    """``(value, percentile, n)`` at the highest percentile with >= 10 samples beyond it."""
    n = len(values)
    chosen = 50.0
    for p in (50.0, 75.0, 90.0, 95.0, 98.0, 99.0, 99.5, 99.9):
        if n * (1.0 - p / 100.0) >= 10:
            chosen = p
    return quantile_hd(values, chosen / 100.0), chosen, n


def quantile_hd(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the *q* quantile.

    A Beta-weighted average of all order statistics instead of the one or
    two samples nearest the quantile: latencies that cluster (by scenario,
    or by whether a request wrote a checkpoint) leave gaps where a single
    order statistic jumps between clusters from run to run.
    """
    import numpy as np
    from scipy.special import betainc

    ordered = np.sort(np.asarray(values, dtype=np.float64))
    n = ordered.size
    a, b = (n + 1) * q, (n + 1) * (1.0 - q)
    weights = np.diff(betainc(a, b, np.arange(n + 1) / n))
    return float(weights @ ordered)


def median_hd(values: list[float]) -> float:
    """Harrell-Davis estimate of the median (see :func:`quantile_hd`)."""
    return quantile_hd(values, 0.5)


def parse_importtime(text: str) -> dict:
    """Self time per top-level package from ``python -X importtime`` output."""
    totals: dict[str, float] = {}
    for line in text.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3:
            continue
        package = parts[2].strip().split(".")[0]
        totals[package] = totals.get(package, 0.0) + int(parts[0]) / 1e6
    return {
        "import.repro_s": totals.get("repro", 0.0),
        "import.scipy_s": totals.get("scipy", 0.0),
        "import.networkx_s": totals.get("networkx", 0.0),
        "import.total_s": sum(totals.values()),
    }


def timed_setup(start) -> list[float]:
    """``SETUP_SAMPLES`` set-up times, each scaled by the brackets around it.

    ``start(index)`` performs set-up sample *index* and returns its wall
    time.  The reference brackets run here, in the benchmark process,
    while the machine is otherwise idle.
    """
    import calibrate

    samples, brackets = [], [calibrate.bracket()]
    for index in range(SETUP_SAMPLES):
        samples.append(start(index))
        brackets.append(calibrate.bracket())
    factors, _ = calibrate.factors(brackets)
    return [s * f for s, f in zip(samples, factors)]


def probe_imports(run_dir: Path, importtime: bool) -> tuple[list[float], dict]:
    """Start fresh interpreters until ``import repro.cli`` is done.

    Returns the scaled start-to-ready times and, with *importtime*, the
    median ``-X importtime`` split measured in those same interpreters.
    """
    splits = []

    def start(index: int) -> float:
        cmd = [sys.executable]
        if importtime:
            cmd += ["-X", "importtime"]
        cmd += ["-c", "import repro.cli; print('ready', flush=True)"]
        err_path = run_dir / f"importtime-{index}.txt"
        with open(err_path, "w") as err:
            started = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=child_env(),
                                    cwd=ROOT, text=True)
            line = proc.stdout.readline()
            ready = time.perf_counter() - started
            proc.communicate(timeout=60)
        if line.strip() != "ready" or proc.returncode != 0:
            raise BenchError(f"'import repro.cli' failed in a fresh interpreter (exit {proc.returncode})")
        if importtime:
            splits.append(parse_importtime(err_path.read_text()))
        return ready

    samples = timed_setup(start)
    split = {key: statistics.median(s[key] for s in splits) for key in splits[0]} if splits else {}
    return samples, split


def provenance(seed: int, digest: str, preset: str) -> dict:
    """Where a result came from; ``src_digest`` identifies the code when git cannot."""
    import hashlib

    import numpy

    from inputs import HELD_OUT_SEED

    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or "unknown"
        except OSError:
            pass
    source = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode())
        source.update(path.read_bytes())
    return {
        "commit": commit,
        "src_digest": source.hexdigest()[:16],
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "preset": preset,
        "input_digest": digest,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def scaled(reps: list[dict], brackets: list[dict]) -> dict:
    """A loop's figures with each repetition's wall time scaled by its bracket factor.

    *reps* holds ``{"wall_s", "packets", "ops_ms"}`` per repetition and
    *brackets* one more reference-kernel bracket than there are
    repetitions (see ``calibrate.py``).  Throughput is taken over the
    whole loop (all packets over all scaled seconds).  The ``raw_*``
    figures are the same without scaling.
    """
    import calibrate

    factors, unscaled = calibrate.factors(brackets)
    packets = sum(rep["packets"] for rep in reps)
    return {
        "pkts_per_s": packets / sum(rep["wall_s"] * f for rep, f in zip(reps, factors)),
        "raw_pkts_per_s": packets / sum(rep["wall_s"] for rep in reps),
        "rates": [rep["packets"] / (rep["wall_s"] * f) for rep, f in zip(reps, factors)],
        "ops_ms": [ms * f for rep, f in zip(reps, factors) for ms in rep["ops_ms"]],
        "raw_ops_ms": [ms for rep in reps for ms in rep["ops_ms"]],
        "kernel_ms": statistics.median(b["kernel_s"] for b in brackets) * 1e3,
        "unscaled": unscaled,
        "repetitions": len(reps),
    }


def scaling_notes(figures: dict) -> list[str]:
    """``note:`` lines that show the unscaled figures next to the scaled ones."""
    import calibrate

    raw_p50 = median_hd(figures["raw_ops_ms"])
    notes = [f"unscaled: pkts_per_s {figures['raw_pkts_per_s']:.1f}, ingest p50 {raw_p50:.3f} ms; "
             f"reference kernel median {figures['kernel_ms']:.3f} ms "
             f"(figures are scaled to {calibrate.REFERENCE_S * 1e3:g} ms)"]
    if figures["unscaled"]:
        notes.append(f"{figures['unscaled']} of {figures['repetitions']} repetitions are unscaled: "
                     "the program used CPU during the reference kernel next to them")
    return notes


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# --------------------------------------------------------------------------
# in-process workloads: campaign-cold, trace-analyze
# --------------------------------------------------------------------------


def run_inprocess(args, sizes, preset: str, run_dir: Path) -> dict:
    import checks
    import inputs

    workload = args.workload
    setup, import_split = probe_imports(run_dir, importtime=bool(args.trace))
    spec = {"workload": workload, "src": str(SRC), "seconds": args.seconds,
            "traced": bool(args.trace)}
    if workload == "campaign-cold":
        spec.update(seeds=inputs.campaign_seeds(args.seed, sizes), nv=sizes.campaign_nv,
                    detectors=list(inputs.DETECTORS))
        digest = inputs.campaign_digest(args.seed, sizes)
    else:
        trace, digest = inputs.ensure_trace(WORK, args.seed, sizes, preset)
        spec.update(trace=str(trace), nv=sizes.trace_nv, packets=sizes.trace_packets)
        if args.trace:
            spec["parallel_workers"] = PARALLEL_WORKERS

    spec_path = run_dir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    report_path = run_dir / "report.json"
    subprocess.run([sys.executable, str(HERE / "workload.py"), str(spec_path), str(report_path)],
                   env=child_env(), cwd=ROOT, check=True, timeout=args.seconds + 100)
    report = json.loads(report_path.read_text())

    # -- checks (outside any timed region) --------------------------------
    loops = {tag: report[tag] for tag in ("untraced", "traced", "parallel") if tag in report}
    problems: list[str] = []
    alarms = {}
    if workload == "campaign-cold":
        from repro.campaigns import ResultStore
        from repro.scenarios import analyze_scenario

        grid = inputs.campaign(spec["seeds"], spec["nv"])
        references = {
            cell.key: analyze_scenario(
                cell.scenario, cell.n_valid, seed=cell.seed, quantities=cell.quantities,
                block_packets=cell.block_packets, keep_windows=False, detectors=cell.detectors,
            )
            for cell in grid.cells()
        }
        for tag, loop in loops.items():
            alarms[tag] = 0
            for output in loop["outputs"]:
                store = ResultStore(output["store"])
                for cell in grid.cells():
                    if cell.seed != output["seed"]:
                        continue
                    label = f"{Path(output['store']).name} {cell.scenario.name} seed={cell.seed}"
                    try:
                        stored = store.get(cell.key)
                    except KeyError:
                        problems.append(f"{label}: cell missing from the store")
                        continue
                    problems += checks.compare_scenario_runs(stored, references[cell.key], label)
                    alarms[tag] += sum(len(a) for a in stored.detection.alarms.values())
                shutil.rmtree(output["store"], ignore_errors=True)
    else:
        results = {}
        for tag, loop in loops.items():
            if len(set(loop["outputs"])) != 1:
                problems.append(f"{tag}: outputs differ between iterations")
            with open(run_dir / f"result-{tag}.pkl", "rb") as handle:
                results[tag] = pickle.load(handle)
        reference = checks.oracle_analysis(spec["trace"], spec["nv"], results["untraced"].quantities)
        for tag, result in results.items():
            problems += checks.compare_analyses(result, reference, f"{tag} vs oracle")
        for tag in ("traced", "parallel"):
            if tag in loops and loops[tag]["outputs"][0] != loops["untraced"]["outputs"][0]:
                problems.append(f"{tag} output differs from the untraced output")
        alarms = {tag: 0 for tag in loops}

    plain = scaled(loops["untraced"]["reps"], loops["untraced"]["brackets"])
    attempted = sum(loop["attempted"] for loop in loops.values())
    failed = sum(loop["failed"] for loop in loops.values())
    result = {
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "provenance": provenance(args.seed, digest, preset),
        "latency": {"ingest": plain["ops_ms"]},
        "notes": report["notes"] + scaling_notes(plain),
    }
    if args.trace:
        import tracer as tracing

        traced = scaled(loops["traced"]["reps"], loops["traced"]["brackets"])
        snapshot = report["snapshot"]
        wall = sum(snapshot["self_s"].values())
        layers = tracing.layer_metrics(snapshot, wall)
        layers.update(import_split)
        layers["detect.alarms"] = alarms["traced"]
        layers["trace.overhead_pct"] = (
            statistics.median(plain["rates"]) / statistics.median(traced["rates"]) - 1.0
        ) * 100.0
        result["per_layer"] = layers
        result["notes"] += tracing.notes(snapshot)
    else:
        result["end_to_end"] = end_to_end(
            setup=setup, pkts_per_s=plain["pkts_per_s"], peak_rss=report["peak_rss_mib"],
            attempted=attempted, failed=failed, ops_ms=plain["ops_ms"],
        )
    return result


def end_to_end(*, setup, pkts_per_s, peak_rss, attempted, failed, ops_ms) -> dict:
    """The end-to-end metrics (throughput and latencies already scaled)."""
    return {
        "setup_s": statistics.median(setup),
        "pkts_per_s": pkts_per_s,
        "peak_rss_mib": peak_rss,
        "ok_ratio": (attempted - failed) / attempted,
        "ingest_p50_ms": median_hd(ops_ms),
        "ingest_tail_ms": tail(ops_ms)[0],
    }


# --------------------------------------------------------------------------
# service-ingest
# --------------------------------------------------------------------------


def request(port: int, method: str, path: str, body: bytes | None = None,
         timeout: float = 60.0) -> tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request(method, path, body=body)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Daemon:
    """One ``repro serve`` process.

    *mode* ``"plain"`` runs the stock command line (set-up samples);
    ``"launcher"`` runs it behind ``daemon.py``, which answers reference
    bracket requests; ``"traced"`` also wraps the layer boundaries.
    """

    def __init__(self, run_dir: Path, name: str, sizes, mode: str) -> None:
        self.store = fresh_dir(run_dir / f"store-{name}")
        self.prefix = run_dir / f"daemon-{name}"
        self.log = run_dir / f"daemon-{name}.log"
        self.port = free_port()
        serve_args = ["--port", str(self.port), "--store", str(self.store),
                      "--checkpoint-every", str(sizes.service_checkpoint_every)]
        if mode == "plain":
            cmd = [sys.executable, "-m", "repro", "serve", *serve_args]
        else:
            cmd = [sys.executable, str(HERE / "daemon.py"), str(self.prefix),
                   "1" if mode == "traced" else "0", *serve_args]
        with open(self.log, "w") as log:
            self.started = time.perf_counter()
            self.proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                         env=child_env(), cwd=ROOT)
        self.ready_s = self._wait_ready()
        self.n_snapshots = 0
        self.n_brackets = 0
        #: (start, end) perf_counter times of the reference brackets
        self.bracket_spans: list[tuple[float, float]] = []

    def _wait_ready(self) -> float:
        deadline = self.started + 60.0
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise BenchError(f"daemon exited with {self.proc.returncode}; see {self.log}")
            try:
                status, _ = request(self.port, "GET", "/status", timeout=5.0)
            except OSError:
                status = None
            if status == 200:
                return time.perf_counter() - self.started
            time.sleep(0.005)
        self.stop()
        raise BenchError("daemon did not answer /status within 60 s")

    def peak_rss_mib(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for the daemon")

    def _signal_for(self, signum: int, path: Path, what: str) -> dict:
        self.proc.send_signal(signum)
        deadline = time.perf_counter() + 30.0
        while not path.exists():
            if time.perf_counter() > deadline:
                raise BenchError(f"daemon wrote no {what}; see {self.log}")
            time.sleep(0.002)
        return json.loads(path.read_text())

    def snapshot(self) -> dict:
        """Ask the traced daemon for its running span totals."""
        self.n_snapshots += 1
        return self._signal_for(signal.SIGUSR1, Path(f"{self.prefix}.{self.n_snapshots}.json"),
                                "span snapshot")

    def reference(self) -> dict:
        """Have the idle daemon time one reference-kernel bracket."""
        self.n_brackets += 1
        started = time.perf_counter()
        bracket = self._signal_for(signal.SIGUSR2,
                                   Path(f"{self.prefix}.cal.{self.n_brackets}.json"),
                                   "reference bracket")
        self.bracket_spans.append((started, time.perf_counter()))
        return bracket

    def stop(self) -> int:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        return self.proc.returncode


class Prober(threading.Thread):
    """Open-loop ``GET /status`` at a fixed rate, timed from each due time."""

    def __init__(self, port: int, rate_hz: float) -> None:
        super().__init__(daemon=True)
        self.port = port
        self.period = 1.0 / rate_hz
        self.stop_event = threading.Event()
        self.running = threading.Event()
        self.running.set()
        self.samples: list[tuple[float, float, float]] = []  # (due, sent, done)
        self.failed = 0

    def hold(self) -> None:
        """Stop probing while the daemon times a reference bracket.

        The bracket blocks the daemon's event loop.  Probes kept on
        schedule meanwhile would queue up behind it, and one connection
        could not catch up behind the ingest requests that follow.
        """
        self.running.clear()

    def release(self) -> None:
        """Probe again, on a schedule that starts now."""
        self.running.set()

    def figures(self, skip: list[tuple[float, float]]) -> tuple[list[float], list[float]]:
        """``(latency_ms, lag_ms)`` of the probes that overlap no span in *skip*.

        A probe that waited on a reference bracket measured the bracket,
        not the daemon, so it is left out.
        """
        kept = [(due, sent, done) for due, sent, done in self.samples
                if not any(due < end and done > start for start, end in skip)]
        return ([(done - due) * 1e3 for due, _, done in kept],
                [(sent - due) * 1e3 for due, sent, _ in kept])

    def run(self) -> None:
        start = time.perf_counter()
        index = 0
        while not self.stop_event.is_set():
            if not self.running.is_set():
                while not self.running.wait(0.005):
                    if self.stop_event.is_set():
                        return
                start, index = time.perf_counter(), 0
            due = start + index * self.period
            index += 1
            pause = due - time.perf_counter()
            if pause > 0 and self.stop_event.wait(pause):
                break
            if not self.running.is_set():
                continue
            sent = time.perf_counter()
            try:
                status, _ = request(self.port, "GET", "/status")
            except OSError:
                status = None
            done = time.perf_counter()
            if status != 200:
                self.failed += 1
            self.samples.append((due, sent, done))


def feed_pass(port: int, job: str, bodies, counts, config: dict) -> dict:
    """Submit one job and feed it one scenario pass, closed loop."""
    pass_started = time.perf_counter()
    status, body = request(port, "POST", "/jobs", json.dumps(config).encode())
    if status != 200:
        raise BenchError(f"job submit failed ({status}): {body[:200]!r}")
    config_hash = json.loads(body)["config_hash"]
    latency_ms, failed, packets = [], 0, 0
    for seq, (payload, n) in enumerate(zip(bodies, counts), start=1):
        started = time.perf_counter()
        try:
            status, _ = request(port, "POST", f"/ingest/{job}?seq={seq}", payload)
        except OSError:
            status = None
        latency_ms.append((time.perf_counter() - started) * 1e3)
        if status == 200:
            packets += n
        else:
            failed += 1
    return {"job": job, "hash": config_hash, "latency_ms": latency_ms,
            "failed": failed, "packets": packets, "wall": time.perf_counter() - pass_started}


def drive(daemon: Daemon, seconds: float, bodies, counts, sizes, traced: bool) -> dict:
    """One untimed warm-up pass, then timed passes until *seconds* of feeding.

    The daemon times a reference bracket before the first timed pass and
    after each one.  The ``/status`` prober runs throughout the timed
    passes and holds during each bracket; a probe already in flight when
    a bracket starts is left out of its figures.
    """
    import inputs

    passes = [feed_pass(daemon.port, "warmup", bodies, counts,
                        inputs.job_config("warmup", sizes))]
    brackets = [daemon.reference()]
    before = daemon.snapshot() if traced else None
    prober = Prober(daemon.port, sizes.status_rate_hz)
    prober.start()
    timed = []
    while not timed or sum(job["wall"] for job in timed) < seconds:
        name = f"pass-{len(timed)}"
        timed.append(feed_pass(daemon.port, name, bodies, counts,
                               inputs.job_config(name, sizes)))
        prober.hold()
        brackets.append(daemon.reference())
        prober.release()
    prober.stop_event.set()
    prober.join(timeout=60)
    after = daemon.snapshot() if traced else None
    for job in passes + timed:
        status, body = request(daemon.port, "POST", f"/jobs/{job['job']}/flush")
        if status != 200:
            raise BenchError(f"flush of {job['job']} failed ({status}): {body[:200]!r}")
    _, status_body = request(daemon.port, "GET", "/status")
    status_ms, lag_ms = prober.figures(daemon.bracket_spans)
    figures = scaled([{"wall_s": job["wall"], "packets": job["packets"], "ops_ms": job["latency_ms"]}
                      for job in timed], brackets)
    return {"wall": sum(job["wall"] for job in timed), "passes": passes + timed,
            "timed": timed, "figures": figures, "status_ms": status_ms, "lag_ms": lag_ms,
            "probes": len(prober.samples), "probes_failed": prober.failed,
            "before": before, "after": after,
            "status": json.loads(status_body), "peak_rss": daemon.peak_rss_mib()}


def check_daemon_store(daemon: Daemon, run: dict, reference) -> tuple[list[str], int]:
    import checks
    from repro.campaigns import ResultStore

    store = ResultStore(daemon.store)
    problems, alarms = [], 0
    for job in run["passes"]:
        try:
            payload = store.get(job["hash"])
        except KeyError:
            problems.append(f"{job['job']}: flushed result missing from the store")
            continue
        problems += checks.compare_service_payload(payload, reference, job["job"])
        alarms += sum(len(v) for v in payload.get("detection", {}).get("alarms", {}).values())
    return problems, alarms


def run_service(args, sizes, preset: str, run_dir: Path) -> dict:
    import inputs
    from repro.scenarios import analyze_scenario

    bodies, counts, digest = inputs.service_stream(args.seed, sizes)
    daemons: list[Daemon] = []
    problems: list[str] = []
    try:
        if args.trace:
            _, import_split = probe_imports(run_dir, importtime=True)
            half = args.seconds / 2.0
            daemons.append(Daemon(run_dir, "untraced", sizes, "launcher"))
            plain = drive(daemons[-1], half, bodies, counts, sizes, traced=False)
            daemons.append(Daemon(run_dir, "traced", sizes, "traced"))
            traced = drive(daemons[-1], half, bodies, counts, sizes, traced=True)
            runs = {"untraced": (daemons[0], plain), "traced": (daemons[1], traced)}
        else:
            # set-up is timed on the stock command line; the measured
            # daemon runs behind the launcher that answers bracket requests
            def start(index: int) -> float:
                daemons.append(Daemon(run_dir, f"setup-{index}", sizes, "plain"))
                daemons[-1].stop()
                return daemons[-1].ready_s

            setup = timed_setup(start)
            daemons.append(Daemon(run_dir, "measured", sizes, "launcher"))
            measured = drive(daemons[-1], args.seconds, bodies, counts, sizes, traced=False)
            runs = {"untraced": (daemons[-1], measured)}
    finally:
        exit_codes = [daemon.stop() for daemon in daemons]
    if any(code != 0 for code in exit_codes):
        problems.append(f"daemon exit codes {exit_codes}, expected 0")

    reference = analyze_scenario(
        inputs.service_scenario(sizes.service_scale), sizes.service_nv, seed=args.seed,
        detectors=inputs.DETECTORS, detect_quantity="source_fanout",
    )
    alarms = {}
    for tag, (daemon, run) in runs.items():
        found, alarms[tag] = check_daemon_store(daemon, run, reference)
        problems += [f"{tag}: {p}" for p in found]

    attempted = failed = 0
    for _daemon, run in runs.values():
        for job in run["passes"]:
            attempted += len(job["latency_ms"])
            failed += job["failed"]
        attempted += run["probes"]
        failed += run["probes_failed"]

    _, plain = runs["untraced"]
    result = {
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "provenance": provenance(args.seed, digest, preset),
        "latency": {"ingest": plain["figures"]["ops_ms"], "status": plain["status_ms"]},
        "notes": scaling_notes(plain["figures"]),
    }
    if args.trace:
        import tracer as tracing

        _, traced = runs["traced"]
        delta = tracing.diff_snapshots(traced["after"], traced["before"])
        layers = tracing.layer_metrics(delta, traced["wall"])
        layers.update(import_split)
        layers["detect.alarms"] = alarms["traced"]
        layers["server.busy_share"] = 1.0 - layers["other.s"] / traced["wall"]
        layers["server.rejected"] = traced["status"]["requests_failed"]
        # the probe figures come from the untraced daemon: no tracer overhead
        layers["service.status_p50_ms"] = median_hd(plain["status_ms"])
        layers["service.status_tail_ms"] = tail(plain["status_ms"])[0]
        layers["service.probe_lag_ms"] = statistics.median(plain["lag_ms"])
        layers["trace.overhead_pct"] = (
            statistics.median(plain["figures"]["rates"])
            / statistics.median(traced["figures"]["rates"]) - 1.0
        ) * 100.0
        result["per_layer"] = layers
        result["notes"] += tracing.notes(delta)
    else:
        result["end_to_end"] = end_to_end(
            setup=setup, pkts_per_s=plain["figures"]["pkts_per_s"], peak_rss=plain["peak_rss"],
            attempted=attempted, failed=failed, ops_ms=plain["figures"]["ops_ms"],
        )
    return result


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------


def run_one(args) -> int:
    """Run, check and report one workload; returns the exit code."""
    import inputs

    preset = "smoke" if args.smoke else "full"
    sizes = inputs.SIZES[preset]
    run_dir = fresh_dir(WORK / f"run-{args.workload}-{os.getpid()}")
    if args.workload == "service-ingest":
        result = run_service(args, sizes, preset, run_dir)
    else:
        result = run_inprocess(args, sizes, preset, run_dir)
    shutil.rmtree(run_dir, ignore_errors=True)

    if args.trace:
        # layers a workload never enters read zero
        units, values = PER_LAYER_UNITS, {name: 0.0 for name in PER_LAYER_UNITS}
        values.update(result["per_layer"])
    else:
        units, values = END_TO_END_UNITS, result["end_to_end"]
    correct = not result["problems"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"provenance {json.dumps(result['provenance'], sort_keys=True)}")
    for problem in result["problems"][:20]:
        print(f"CHECK FAILED: {problem}")
    for kind, samples in result.get("latency", {}).items():
        if samples:
            value, percentile, n = tail(samples)
            print(f"{kind} latency: p50 {median_hd(samples):.3f} ms, "
                  f"p{percentile:g} {value:.3f} ms over {n} samples")
    for note in result["notes"]:
        print(f"note: {note}")
    print(f"attempted {result['attempted']}  failed {result['failed']}  "
          f"failed_ratio {result['failed'] / result['attempted']:.6f}")
    for name, unit in units.items():
        print(f"  {name:28s} {values[name]:>18.6f} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()},
    }), flush=True)
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"),
                        help="one workload, or 'all' to run every workload in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-tests")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources ({SRC / 'repro'}) are missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload != "all":
        return run_one(args)
    codes = [run_one(argparse.Namespace(**{**vars(args), "workload": name})) for name in WORKLOADS]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
