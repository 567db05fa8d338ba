#!/usr/bin/env python
"""Campaign sweep walkthrough: grids, the result store, resume, and reports.

Campaigns make *fleets* of runs cheap to own.  This example:

1. declares a campaign — a grid of scenarios × seeds — and runs it cold
   into an on-disk content-addressed result store, computing whole cells
   in parallel on a process pool,
2. re-runs the identical campaign and shows that **nothing** is recomputed
   (every cell is a warm O(read) hit),
3. simulates an interrupted sweep with ``max_cells`` and shows the next run
   resuming exactly the missing cells, and
4. assembles the cross-seed comparison report from the store alone.

Run with ``python examples/campaign_sweep.py``.
"""

from __future__ import annotations

import os
import tempfile

from repro.campaigns import Campaign, CampaignReport, run_campaign

# Examples honour REPRO_EXAMPLE_SCALE in (0, 1] so the docs smoke test
# (tests/test_examples.py) can execute them at tiny sizes.
from repro._util.examples import scaled  # noqa: E402


def main() -> None:
    campaign = Campaign(
        "drift-sweep",
        scenarios=("stationary", "alpha-drift", "flash-crowd"),
        seeds=(0, 1, 2),
        n_valids=(scaled(5_000, 500),),
        chunk_packets=scaled(10_000, 1_000),
        description="does the drift statistic separate regimes across seeds?",
    )
    print(f"campaign {campaign.name!r}: {campaign.n_cells} cells")

    with tempfile.TemporaryDirectory() as tmp:
        store = os.path.join(tmp, "results")

        # 1. cold sweep: every cell is computed and persisted as it
        #    finishes (atomically — a kill loses at most the cell in flight)
        cold = run_campaign(campaign, store, pool="process")
        print(f"\ncold run:   computed {cold.n_computed}, cached {cold.n_cached}")

        # 2. warm sweep: the same grid again — zero recomputation
        warm = run_campaign(campaign, store)
        print(f"warm run:   computed {warm.n_computed}, cached {warm.n_cached}")

        # 3. an 'interrupted' sweep elsewhere, then resume
        partial_store = os.path.join(tmp, "partial")
        partial = run_campaign(campaign, partial_store, max_cells=2)
        resumed = run_campaign(campaign, partial_store)
        print(f"interrupted: computed {partial.n_computed}, skipped {partial.n_skipped}; "
              f"resume computed {resumed.n_computed} (only the missing cells)")

        # 4. the report is assembled from the store alone — and because it
        #    is a pure function of stored results, re-rendering a finished
        #    campaign is byte-identical
        report = CampaignReport.from_store(store, "drift-sweep")
        print()
        print(report.render("source_fanout"))


if __name__ == "__main__":
    main()
