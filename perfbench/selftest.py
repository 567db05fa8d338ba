#!/usr/bin/env python3
"""The benchmark's own tests (kept out of the repository's pytest run).

Usage, from the repository root::

    python3 perfbench/selftest.py          # ~2 minutes on 2 CPUs

Runs every workload at its smoke size, untraced and traced, and checks
that each run prints exactly the metric names and units ``BENCHMARK.json``
declares, passes its output checks, and accounts for its traced wall time;
that perturbed outputs fail the output checks; and that the benchmark
refuses to run without the program's sources.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import tempfile
import threading
import unittest
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import calibrate  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


class SmokeRuns(unittest.TestCase):
    """Every workload at smoke size: names, units, checks, accounting."""

    def run_smoke(self, workload: str, trace: int) -> dict:
        proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--smoke")
        self.assertEqual(proc.returncode, 0, proc.stdout[-3000:] + proc.stderr[-3000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        declared = CONFIG["per_layer" if trace else "end_to_end"]
        self.assertEqual({name: m["unit"] for name, m in result["metrics"].items()},
                         {m["name"]: m["unit"] for m in declared})
        for name, metric in result["metrics"].items():
            self.assertTrue(math.isfinite(metric["value"]), name)
        return {name: m["value"] for name, m in result["metrics"].items()}

    def test_untraced(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                metrics = self.run_smoke(workload, 0)
                for name in CONFIG["end_to_end"]:
                    self.assertGreater(metrics[name["name"]], 0, name["name"])

    def test_traced_accounts_for_wall_time(self):
        expected_layers = {
            "campaign-cold": ("generators.s",),
            "trace-analyze": ("kernel.s", "parallel.wait_s", "parallel.tasks"),
            "service-ingest": ("decode.s",),
        }
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                metrics = self.run_smoke(workload, 1)
                claimed = sum(metrics[m] for m in tracer.LAYER_SECONDS.values())
                self.assertAlmostEqual(claimed + metrics["other.s"], metrics["traced.wall_s"],
                                       places=6)
                for layer in expected_layers[workload]:
                    self.assertGreater(metrics[layer], 0, layer)
                self.assertGreater(metrics["import.scipy_s"], 0)


class OutputChecks(unittest.TestCase):
    """A perturbed output must fail the check that guards it."""

    @classmethod
    def setUpClass(cls):
        from repro.scenarios import analyze_scenario
        from repro.streaming import PacketTrace, analyze_trace

        rng = np.random.default_rng(0)
        trace = PacketTrace.from_arrays(rng.integers(0, 300, 40_000), rng.integers(0, 300, 40_000))
        cls.analysis = analyze_trace(trace, 5_000)
        cls.scenario_run = analyze_scenario("flash-crowd", 5_000, seed=0, detectors=("cusum", "ewma"))

    def test_analysis_perturbation_is_caught(self):
        self.assertEqual(checks.compare_analyses(self.analysis, self.analysis, "same"), [])
        original = self.analysis.pooled

        class Perturbed:
            quantities = self.analysis.quantities
            n_windows = self.analysis.n_windows
            windows = self.analysis.windows
            aggregates_table = self.analysis.aggregates_table

            @staticmethod
            def pooled(quantity):
                pooled = original(quantity)
                values = pooled.values.copy()
                values[0] = np.nextafter(values[0], np.inf)
                return dataclasses.replace(pooled, values=values)

        problems = checks.compare_analyses(Perturbed(), self.analysis, "perturbed")
        self.assertTrue(any("values differs" in p for p in problems), problems)

    def test_alarm_perturbation_is_caught(self):
        self.assertEqual(checks.compare_scenario_runs(self.scenario_run, self.scenario_run, "same"), [])
        alarms = dict(self.scenario_run.detection.alarms)
        alarms["cusum"] = tuple(alarms["cusum"]) + (999,)
        perturbed = dataclasses.replace(
            self.scenario_run, detection=dataclasses.replace(self.scenario_run.detection, alarms=alarms))
        self.assertIn("perturbed: alarm sequences differ",
                      checks.compare_scenario_runs(perturbed, self.scenario_run, "perturbed"))

    def test_service_payload_perturbation_is_caught(self):
        payload = {
            "n_windows": self.scenario_run.analysis.n_windows,
            "pooled": {
                q: {
                    "bin_edges": self.scenario_run.analysis.pooled(q).bin_edges.tolist(),
                    "values": self.scenario_run.analysis.pooled(q).values.tolist(),
                    "sigma": self.scenario_run.analysis.pooled(q).sigma.tolist(),
                    "total": int(self.scenario_run.analysis.pooled(q).total),
                }
                for q in self.scenario_run.analysis.quantities
            },
            "detection": {"alarms": {k: list(v) for k, v in self.scenario_run.detection.alarms.items()}},
        }
        self.assertEqual(checks.compare_service_payload(payload, self.scenario_run, "same"), [])
        payload["pooled"]["link_packets"]["sigma"][1] *= 1.0 + 1e-15
        self.assertIn("perturbed: pooled link_packets.sigma differs",
                      checks.compare_service_payload(payload, self.scenario_run, "perturbed"))


class Scaling(unittest.TestCase):
    """The reference-kernel brackets and what they may scale."""

    def test_bracket_is_invalid_while_another_thread_works(self):
        self.assertTrue(calibrate.bracket()["valid"])
        stop = threading.Event()

        def spin():
            while not stop.is_set():
                sum(range(10_000))

        helper = threading.Thread(target=spin)
        helper.start()
        try:
            busy = calibrate.measure()
        finally:
            stop.set()
            helper.join()
        self.assertFalse(busy["valid"], busy)
        self.assertGreater(busy["busy_s"], calibrate.BUSY_LIMIT_S)

    def test_repetition_next_to_an_invalid_bracket_is_unscaled(self):
        good = {"kernel_s": calibrate.REFERENCE_S * 2, "valid": True}
        bad = {"kernel_s": calibrate.REFERENCE_S * 4, "valid": False}
        factors, unscaled = calibrate.factors([good, good, bad, good])
        self.assertEqual(factors, [0.5, 1.0, 1.0])
        self.assertEqual(unscaled, 2)
        figures = run.scaled([{"wall_s": 2.0, "packets": 10, "ops_ms": [4.0]}] * 3,
                             [good, good, bad, good])
        self.assertEqual(figures["raw_pkts_per_s"], 5.0)
        self.assertEqual(figures["pkts_per_s"], 30 / 5.0)
        self.assertEqual(figures["ops_ms"], [2.0, 4.0, 4.0])

    def test_probes_overlapping_a_bracket_are_dropped(self):
        prober = run.Prober(port=1, rate_hz=50.0)
        prober.samples = [(0.0, 0.0, 0.01), (1.0, 1.0, 1.2), (2.0, 2.0, 2.01)]
        latency, lag = prober.figures([(1.1, 1.15)])
        self.assertEqual(len(latency), 2)
        self.assertEqual(len(lag), 2)


class Contract(unittest.TestCase):
    def test_refuses_without_program_sources(self):
        (HERE / "out").mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
            copy = Path(tmp)
            shutil.copy(ROOT / "BENCHMARK.json", copy / "BENCHMARK.json")
            shutil.copytree(HERE, copy / "perfbench",
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = bench("--workload", "trace-analyze", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=copy)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)

    def test_tail_percentile_keeps_ten_samples_beyond(self):
        values = list(range(1, 501))
        self.assertEqual(run.tail(values)[1:], (98.0, 500))
        self.assertEqual(run.tail(values[:18])[1:], (50.0, 18))
        self.assertAlmostEqual(run.median_hd(values), 250.5, places=6)

    def test_off_thread_calls_are_counted_and_noted(self):
        spans = tracer.Tracer()
        traced = tracer._wrap_call(spans, "engine", lambda: None)
        helper = threading.Thread(target=traced)
        helper.start()
        helper.join()
        traced()
        snapshot = spans.snapshot()
        self.assertEqual(snapshot["calls"], {"engine": 1})
        self.assertEqual(snapshot["off_thread"], {"engine": 1})
        self.assertTrue(tracer.notes(snapshot)[0].startswith(
            "1 calls into layer 'engine' ran off the traced thread"))


if __name__ == "__main__":
    unittest.main(verbosity=2)
