#!/usr/bin/env python
"""Streaming traffic analysis: the Figure-3 workflow on a synthetic observatory.

Reproduces the measurement pipeline of Section II end to end, driven through
the single-pass analysis engine:

1. build a PALU underlying network standing in for "who talks to whom",
2. replay a multi-window synthetic packet trace over it (heavy-tailed
   per-link rates, a sprinkle of invalid packets),
3. run the trace through the engine on the *process* backend — windows are
   cut lazily, analysed across worker processes, and folded into running
   pooled aggregates as results stream back,
4. compute the Table-I aggregates and all five Figure-1 quantities,
5. fit the modified Zipf–Mandelbrot model to every quantity, printing the
   per-panel (α, δ) exactly like the annotations of Figure 3, and
6. repeat the analysis out-of-core: the trace is written as a v2 *sharded*
   directory and re-analysed in bounded memory (``keep_windows=False``),
   reading one chunk at a time — the pooled distributions come out
   bit-identical to the in-memory run.

Run with ``python examples/streaming_traffic_analysis.py``.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

import repro
from repro.analysis.summary import format_table
from repro.streaming.aggregates import QUANTITY_NAMES
from repro.streaming.trace_generator import TraceConfig, generate_trace_from_graph

# Examples honour REPRO_EXAMPLE_SCALE in (0, 1] so the docs smoke test
# (tests/test_examples.py) can execute them at tiny sizes.
from repro._util.examples import scaled  # noqa: E402


def main() -> None:
    params = repro.PALUParameters.from_weights(0.5, 0.25, 0.25, lam=1.5, alpha=2.0)
    palu = repro.generate_palu_graph(params, n_nodes=scaled(40_000, 2_000), seed=11)
    print(f"underlying network: {palu.n_nodes} nodes, {palu.n_edges} edges")

    config = TraceConfig(
        n_packets=scaled(600_000, 30_000),
        rate_model="zipf",
        rate_exponent=1.25,
        invalid_fraction=0.02,
    )
    trace = generate_trace_from_graph(palu, config, rng=12)
    print(f"trace: {trace.n_packets} packets ({trace.n_valid} valid), "
          f"duration {trace.duration:.2f}s")

    n_valid = scaled(100_000, 5_000)
    analysis = repro.analyze_trace(trace, n_valid, backend="process", n_workers=4)
    print(f"\nanalysed {analysis.n_windows} windows of N_V = {n_valid} valid packets "
          f"on the {analysis.engine_stats['backend']} backend")

    print("\nTable-I aggregates per window:")
    print(format_table(analysis.aggregates_table()))

    rows = []
    for quantity in QUANTITY_NAMES:
        pooled = analysis.pooled(quantity)
        fit = analysis.fit_zipf_mandelbrot(quantity)
        rows.append(
            {
                "quantity": quantity,
                "alpha": round(fit.alpha, 2),
                "delta": round(fit.delta, 3),
                "D(d=1)": round(float(pooled.values[0]), 3),
                "dmax": analysis.dmax(quantity),
                "log_mse": round(fit.error, 4),
            }
        )
    print("\nZipf-Mandelbrot fits per quantity (Figure-3 style annotations):")
    print(format_table(rows))

    # show one pooled distribution with error bars, textual rendition of a panel
    quantity = "source_fanout"
    pooled = analysis.pooled(quantity)
    print(f"\npooled differential cumulative distribution for {quantity} (mean ± σ):")
    panel = [
        {
            "bin (d_i)": int(edge),
            "D(d_i)": f"{value:.3e}",
            "sigma": f"{sigma:.1e}",
        }
        for edge, value, sigma in zip(pooled.bin_edges, pooled.values, pooled.sigma)
        if value > 0
    ]
    print(format_table(panel))

    # out-of-core rerun: shard the trace to disk and stream it back in
    # bounded memory — only one chunk is ever resident
    with tempfile.TemporaryDirectory() as tmp:
        shard_packets = scaled(50_000, 5_000)
        sharded = repro.save_trace_sharded(trace, Path(tmp) / "trace-v2", shard_packets=shard_packets)
        streamed = repro.analyze_trace(
            sharded, n_valid, chunk_packets=shard_packets, keep_windows=False
        )
        stats = streamed.engine_stats
        print(f"\nout-of-core rerun: {stats['n_chunks']} chunks, "
              f"peak buffer {stats['max_buffered_packets']} packets "
              f"(trace is {trace.n_packets})")
        identical = all(
            np.array_equal(analysis.pooled(q).values, streamed.pooled(q).values)
            and np.array_equal(analysis.pooled(q).sigma, streamed.pooled(q).sigma)
            for q in QUANTITY_NAMES
        )
        print(f"pooled distributions bit-identical to the in-memory run: {identical}")


if __name__ == "__main__":
    main()
