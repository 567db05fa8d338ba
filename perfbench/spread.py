#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, for tuning and proving steadiness.

Usage, from the repository root::

    python3 perfbench/spread.py --workload trace-analyze --seeds 1 2 3 4 5 [--seconds 10]

Runs ``run.py`` once per seed (untraced) and prints, per metric, the
median and the distance between the first and third quartile as a share
of the median — the statistic the bounds in ``BENCHMARK.json`` limit.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
UNSCALED = re.compile(r"note: unscaled: pkts_per_s ([\d.]+), ingest p50 ([\d.]+) ms")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args()
    config = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or config["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, cwd=HERE.parent,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode != 0 or not result["correct"]:
            print(proc.stdout[-2000:], file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        # the same run's unscaled figures, from its "note: unscaled: ..." line
        match = UNSCALED.search(proc.stdout)
        values.setdefault("unscaled pkts_per_s", []).append(float(match.group(1)))
        values.setdefault("unscaled ingest_p50", []).append(float(match.group(2)))
        print(f"seed {seed}: " + "  ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
              flush=True)
    for name, series in values.items():
        q1, median, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median if median else 0.0
        bound = bounds.get(name)
        verdict = "" if bound is None else f"  bound {bound:.2f} ({spread / bound:.0%} of it)"
        print(f"{name:20s} median {statistics.median(series):14.4f}  spread {spread:.4f}{verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
