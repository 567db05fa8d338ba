#!/usr/bin/env python
"""Scenario drift walkthrough: non-stationary workloads through the engine.

The paper's pooled windowed statistics (Figure 3) assume every window of a
trace is drawn from one stationary traffic graph.  This example measures
what happens when that assumption is deliberately broken:

1. run the ``stationary`` control scenario — one PALU graph, one rate law —
   and confirm the adjacent-phase drift statistic reads ~0 (trivially: one
   phase),
2. run ``alpha-drift``, where the core's power-law exponent drifts
   1.7 → 2.0 → 2.6 across three cross-faded phases, and watch the per-phase
   pooled distributions (and the drift statistic) move,
3. run ``flash-crowd`` in bounded memory (``chunk_packets`` plus
   ``keep_windows=False``) — the scenario trace is never materialized;
   chunks flow from the generator through the windower into the engine,
   with peak buffering bounded by the chunk size — and see the drift spike
   when the star-burst hits,
4. define and register a custom scenario inline, showing the declarative
   `Phase`/`Scenario` API and registration-time validation.

Run with ``python examples/scenario_drift.py``.
"""

from __future__ import annotations

import repro
from repro.analysis.summary import format_table
from repro.scenarios import Phase, Scenario, analyze_scenario, register_scenario

QUANTITY = "source_fanout"


def report(title: str, run) -> None:
    print(f"\n=== {title} ===")
    stats = run.engine_stats
    print(f"backend={stats['backend']}  windows={run.analysis.n_windows}  "
          f"peak buffered packets={stats.get('max_buffered_packets')}")
    print(format_table(run.phases.as_rows(QUANTITY)))
    print(f"max adjacent-phase drift ({QUANTITY}): {run.phases.max_drift(QUANTITY):.4f}")


def main() -> None:
    print("registered scenarios:", ", ".join(repro.scenario_names()))

    # 1. the stationary control: the paper's regime, drift ≈ 0 by construction
    control = analyze_scenario("stationary", n_valid=5_000, seed=42)
    report("stationary (control)", control)

    # 2. slow drift: the core exponent moves phase to phase, and the pooled
    #    head probability D(d=1) moves with it
    drift = analyze_scenario("alpha-drift", n_valid=5_000, seed=42)
    report("alpha-drift", drift)

    # 3. a flash crowd in bounded memory end to end
    crowd = analyze_scenario(
        "flash-crowd", n_valid=5_000, seed=42, chunk_packets=10_000, keep_windows=False
    )
    report("flash-crowd (bounded memory)", crowd)
    burst = max(crowd.phases.drift(QUANTITY), key=lambda d: d.score)
    print(f"the burst is phase {burst.phase_a} → {burst.phase_b}: "
          f"drift {burst.score:.2f}, vs {control.phases.max_drift(QUANTITY):.2f} when stationary")

    # 4. a custom scenario: declarative phases, validated at registration
    custom = register_scenario(
        Scenario(
            name="example-custom",
            description="ER warm-up, then a preferential-attachment regime with heavy zipf rates",
            phases=(
                Phase("erdos-renyi", 25_000, {"n_nodes": 1_500, "p": 0.004}),
                Phase("preferential-attachment", 25_000, {"n_nodes": 1_500, "alpha": 2.3},
                      rate_exponent=1.6),
            ),
            crossfade_packets=2_500,
        ),
        replace=True,
    )
    run = analyze_scenario(custom, n_valid=5_000, seed=42)
    report("example-custom", run)


if __name__ == "__main__":
    main()
