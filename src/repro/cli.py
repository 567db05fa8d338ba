"""Command-line interface.

Exposes the main workflows as subcommands of ``python -m repro`` (or the
``repro`` console script when installed):

* ``generate`` — build a PALU underlying network and emit a synthetic packet
  trace to an ``.npz`` file,
* ``analyze``  — window a trace, print Table-I aggregates, pooled
  distributions, and the per-quantity Zipf–Mandelbrot fits (the Figure-3
  workflow),
* ``fit``      — fit the ZM, PALU, and power-law models to the degree data of
  one quantity of a trace and print the comparison,
* ``experiments`` — run the table/figure reproduction drivers and print their
  rows (what EXPERIMENTS.md is built from),
* ``scenarios`` — list the registered time-varying workload scenarios, or
  run one through the streaming engine and print the per-phase pooled
  distributions and the adjacent-phase drift statistic,
* ``detect`` — list the online drift detectors, or run a scenario with
  detection riding the single-pass engine and score the alarms against the
  scenario's ground-truth phase boundaries (latency, precision/recall,
  false-alarm rate),
* ``campaign`` — run, resume, inspect, and report declarative sweep grids
  backed by the content-addressed result store (``repro.campaigns``),
* ``serve`` — run the resident streaming-analysis daemon: registered jobs
  fold newline-delimited JSON packet batches incrementally through the
  same engine as one-shot analyses, report progress on ``/status``, and
  flush results to a result store on graceful shutdown,
* ``jobs`` — talk to a running daemon: submit job configs, feed scenario
  batches, and poll job status.

Every subcommand is a thin wrapper over the public API so that anything the
CLI does can be scripted directly in Python.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

# only what the parser needs; each command imports what it runs
from repro.detect.detectors import DETECTOR_NAMES
from repro.streaming.aggregates import QUANTITY_NAMES
from repro.streaming.parallel import BACKEND_NAMES
from repro.streaming.pipeline import MODE_NAMES
from repro.streaming.sketch import SketchConfig
from repro.streaming.trace_io import LAYOUT_NAMES

__all__ = ["build_parser", "main"]


def _add_engine_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the window-engine flags shared by every command that runs it.

    ``analyze``, ``scenarios run`` and ``detect run`` all take these; read
    them back with :func:`_engine_kwargs`.
    """
    from repro.streaming.shm import TRANSPORT_NAMES

    parser.add_argument("--backend", choices=list(BACKEND_NAMES), default=None,
                        help="execution backend (default: serial, or process when "
                             "--workers > 1); results are identical on every backend")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes for the window map "
                             "(default: 1, or auto with --backend process)")
    parser.add_argument("--chunk-packets", type=int, default=None,
                        help="read or emit the trace in chunks of this many packets "
                             "(bounds the packets buffered at once)")
    parser.add_argument("--payload-transport", choices=list(TRANSPORT_NAMES), default=None,
                        help="how the process backend ships window columns to workers: "
                             "'shm' (shared-memory segments) or 'pickle' (bytes through "
                             "each task); results are bit-identical either way")
    parser.add_argument("--mode", choices=list(MODE_NAMES), default="exact",
                        help="per-window analysis tier: 'exact' (fused kernel) or 'sketch' "
                             "(Count-Min/HyperLogLog estimates in sub-linear memory, with "
                             "error bounds)")
    _add_sketch_arguments(parser)


def _engine_kwargs(args: argparse.Namespace) -> dict:
    """Engine keyword arguments named by the :func:`_add_engine_arguments` flags.

    Raises ``ValueError`` for a flag combination the engine cannot honour.
    """
    sketch = _sketch_from_args(args)
    if args.mode != "sketch" and sketch is not None:
        raise ValueError("--sketch-* options require --mode sketch")
    return {
        "backend": args.backend,
        "n_workers": args.workers,
        "chunk_packets": args.chunk_packets,
        "mode": args.mode,
        "sketch": sketch,
        "payload_transport": args.payload_transport,
    }


def _print_engine_banner(stats) -> None:
    """Print the one-line engine banner of a run's ``engine_stats``."""
    print(f"engine: backend={stats['backend']} chunks={stats.get('n_chunks')} "
          f"peak buffered packets={stats.get('max_buffered_packets')}"
          + (f" transport={stats['payload_transport']}" if "payload_transport" in stats else ""))


def _add_sketch_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the shared ``--sketch-*`` knobs of the sketch tier to *parser*."""
    parser.add_argument("--sketch-epsilon", type=float, default=None,
                        help="Count-Min additive error bound ε as a fraction of window "
                             "packets (sketch mode only; default 1e-3)")
    parser.add_argument("--sketch-delta", type=float, default=None,
                        help="probability δ that a Count-Min estimate exceeds its ε "
                             "bound (sketch mode only; default 0.05)")
    parser.add_argument("--sketch-seed", type=int, default=None,
                        help="hash seed of the sketch tier; results are deterministic "
                             "per seed on every backend and chunking")


def _sketch_from_args(args: argparse.Namespace) -> SketchConfig | None:
    """The :class:`SketchConfig` implied by ``--sketch-*`` flags (None if untouched)."""
    overrides: dict[str, float | int] = {}
    if args.sketch_epsilon is not None:
        overrides["epsilon"] = args.sketch_epsilon
    if args.sketch_delta is not None:
        overrides["delta"] = args.sketch_delta
    if args.sketch_seed is not None:
        overrides["seed"] = args.sketch_seed
    return SketchConfig(**overrides) if overrides else None


def _sketch_bounds_rows(bounds) -> list[dict]:
    """Render a mapping of :class:`SketchBounds` as printable table rows."""
    return [
        {
            "quantity": name,
            "estimator": b.estimator,
            "epsilon": "-" if b.epsilon is None else f"{b.epsilon:.2e}",
            "delta": "-" if b.delta is None else f"{b.delta:.4f}",
            "rel_err": f"{b.relative_error:.4f}",
        }
        for name, b in bounds.items()
    ]


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser with all subcommands."""
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Hybrid Power-Law Models of Network Traffic' (PALU model).",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}",
        help="print the package version and exit",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    gen = subparsers.add_parser("generate", help="generate a PALU network and a synthetic trace")
    gen.add_argument("output", help="path of the .npz trace file to write")
    gen.add_argument("--nodes", type=int, default=30_000, help="underlying-network size")
    gen.add_argument("--packets", type=int, default=400_000, help="number of packets to emit")
    gen.add_argument("--core", type=float, default=0.55, help="core class weight")
    gen.add_argument("--leaves", type=float, default=0.25, help="leaf class weight")
    gen.add_argument("--unattached", type=float, default=0.20, help="unattached class weight")
    gen.add_argument("--lam", type=float, default=2.0, help="Poisson mean of star sizes (λ)")
    gen.add_argument("--alpha", type=float, default=2.0, help="core power-law exponent")
    gen.add_argument("--rate-exponent", type=float, default=1.2,
                     help="Zipf exponent of the per-link rate model")
    gen.add_argument("--invalid-fraction", type=float, default=0.0,
                     help="fraction of packets flagged invalid")
    gen.add_argument("--seed", type=int, default=0, help="random seed")
    gen.add_argument("--shard-packets", type=int, default=None,
                     help="write a v2 sharded trace directory with this many packets per shard "
                          "(enables out-of-core analysis); default: single v1 .npz file")
    gen.add_argument("--layout", choices=list(LAYOUT_NAMES), default="npz",
                     help="shard encoding for --shard-packets: 'npz' (compressed, smallest) "
                          "or 'npy' (uncompressed records, memory-mapped on read)")
    gen.set_defaults(func=_cmd_generate)

    ana = subparsers.add_parser("analyze", help="windowed Figure-3 style analysis of a trace")
    ana.add_argument("trace", help="path of a .npz trace written by 'generate'")
    ana.add_argument("--nv", type=int, default=100_000, help="window size N_V in valid packets")
    ana.add_argument("--quantities", nargs="+", default=list(QUANTITY_NAMES),
                     choices=list(QUANTITY_NAMES), help="which Figure-1 quantities to analyse")
    _add_engine_arguments(ana)
    ana.add_argument("--panel", action="store_true",
                     help="also render a text panel of each pooled distribution")
    ana.set_defaults(func=_cmd_analyze)

    fit = subparsers.add_parser("fit", help="fit ZM / PALU / power-law models to one quantity")
    fit.add_argument("trace", help="path of a .npz trace")
    fit.add_argument("--quantity", default="source_fanout", choices=list(QUANTITY_NAMES))
    fit.add_argument("--nv", type=int, default=100_000, help="window size N_V in valid packets")
    fit.set_defaults(func=_cmd_fit)

    exp = subparsers.add_parser("experiments", help="run the table/figure reproduction drivers")
    exp.add_argument(
        "which",
        nargs="*",
        default=["table1", "fig1", "fig2", "fig4"],
        choices=["table1", "fig1", "fig2", "fig3", "fig4", "expectations", "recovery", "ablations"],
        help="which experiments to run (default: the fast ones)",
    )
    exp.add_argument("--store", default=None,
                     help="result-store directory: cache each experiment's rows under a "
                          "content key so repeated invocations are O(read)")
    exp.set_defaults(func=_cmd_experiments)

    scen = subparsers.add_parser("scenarios", help="time-varying traffic workload scenarios")
    scen_sub = scen.add_subparsers(dest="scenarios_command", required=True)

    scen_list = scen_sub.add_parser("list", help="list the registered scenarios")
    scen_list.set_defaults(func=_cmd_scenarios_list)

    scen_run = scen_sub.add_parser(
        "run", help="generate and analyse one scenario in a single bounded-memory pass"
    )
    scen_run.add_argument("name", help="a registered scenario name (see 'scenarios list')")
    scen_run.add_argument("--nv", type=int, default=5_000, help="window size N_V in valid packets")
    scen_run.add_argument("--seed", type=int, default=0, help="scenario seed")
    scen_run.add_argument("--quantities", nargs="+", default=list(QUANTITY_NAMES),
                          choices=list(QUANTITY_NAMES), help="which Figure-1 quantities to analyse")
    _add_engine_arguments(scen_run)
    scen_run.set_defaults(func=_cmd_scenarios_run)

    det = subparsers.add_parser(
        "detect", help="online drift detection over the streaming engine"
    )
    det_sub = det.add_subparsers(dest="detect_command", required=True)

    det_list = det_sub.add_parser("list", help="list the built-in drift detectors")
    det_list.set_defaults(func=_cmd_detect_list)

    det_run = det_sub.add_parser(
        "run",
        help="run one scenario with online detection and score the alarms "
             "against the scenario's ground-truth phase boundaries",
    )
    det_run.add_argument("name", help="a registered scenario name (see 'scenarios list')")
    det_run.add_argument("--nv", type=int, default=2_000, help="window size N_V in valid packets")
    det_run.add_argument("--seed", type=int, default=0, help="scenario seed")
    det_run.add_argument("--detectors", nargs="+", default=list(DETECTOR_NAMES),
                         choices=list(DETECTOR_NAMES),
                         help="which detectors ride the analysis pass")
    det_run.add_argument("--quantity", default=None, choices=list(QUANTITY_NAMES),
                         help="pooled quantity the detectors monitor "
                              "(default: source_fanout)")
    det_run.add_argument("--max-latency", type=int, default=8,
                         help="windows after a true boundary within which an alarm "
                              "counts as detecting it")
    _add_engine_arguments(det_run)
    det_run.set_defaults(func=_cmd_detect_run)

    camp = subparsers.add_parser(
        "campaign", help="declarative sweep grids over the content-addressed result store"
    )
    camp_sub = camp.add_subparsers(dest="campaign_command", required=True)

    camp_run = camp_sub.add_parser(
        "run", help="run (or resume) a campaign grid; completed cells are never recomputed"
    )
    camp_run.add_argument("--store", required=True,
                          help="result-store directory (created if absent)")
    camp_run.add_argument("--name", default="default", help="campaign name inside the store")
    camp_run.add_argument("--scenarios", nargs="+", required=True,
                          help="registered scenario names forming the grid's first axis")
    camp_run.add_argument("--seeds", nargs="+", type=int, default=[0],
                          help="scenario seeds (second grid axis)")
    camp_run.add_argument("--nv", nargs="+", type=int, default=[5_000],
                          help="window sizes N_V in valid packets (third grid axis)")
    camp_run.add_argument("--quantities", nargs="+", default=list(QUANTITY_NAMES),
                          choices=list(QUANTITY_NAMES), help="which Figure-1 quantities to analyse")
    camp_run.add_argument("--detectors", nargs="+", default=[],
                          choices=list(DETECTOR_NAMES),
                          help="online drift detectors to run in every cell "
                               "(part of the content key; default: none)")
    camp_run.add_argument("--modes", nargs="+", default=["exact"],
                          choices=list(MODE_NAMES),
                          help="per-window analysis tiers (fourth grid axis; exact and "
                               "sketched cells store distinct results)")
    _add_sketch_arguments(camp_run)
    camp_run.add_argument("--chunk-packets", type=int, default=None,
                          help="scenario chunk size for every cell (bounds the "
                               "packets buffered at once)")
    camp_run.add_argument("--pool", choices=["serial", "process"], default="serial",
                          help="run-level fan-out: compute independent cells serially or "
                               "across worker processes (each cell runs the serial "
                               "window map)")
    camp_run.add_argument("--pool-workers", type=int, default=None,
                          help="worker count for --pool process")
    camp_run.add_argument("--max-cells", type=int, default=None,
                          help="compute at most this many missing cells (partial sweep; "
                               "re-running resumes the rest)")
    camp_run.add_argument("--recompute", action="store_true",
                          help="ignore stored results and recompute every cell")
    camp_run.add_argument("--cell-retries", type=int, default=0,
                          help="retry a failing cell up to this many extra times "
                               "(while holding its lease) before recording it as "
                               "failed; attempts are surfaced in status/report "
                               "rows (default 0)")
    camp_run.add_argument("--workers", type=int, default=1,
                          help="fleet size N: how many 'campaign run' processes sweep this "
                               "grid against the shared store (default 1; start one process "
                               "per worker with matching --worker-id)")
    camp_run.add_argument("--worker-id", default=None, metavar="K/N",
                          help="this process's fleet identity, e.g. 2/4 (default 1/N); "
                               "workers shard the missing cells deterministically and "
                               "steal each other's stale leases")
    camp_run.add_argument("--lease-ttl", type=float, default=None, metavar="SECONDS",
                          help="heartbeat TTL after which a cell lease counts as stale and "
                               "may be taken over (default 30; use one value per fleet)")
    camp_run.add_argument("--heartbeat", type=float, default=None, metavar="SECONDS",
                          help="lease heartbeat period while computing (default: TTL / 3)")
    camp_run.set_defaults(func=_cmd_campaign_run)

    camp_status = camp_sub.add_parser(
        "status", help="show fleet progress (stored/leased/stale/missing) for stored campaigns"
    )
    camp_status.add_argument("--store", required=True, help="result-store directory")
    camp_status.add_argument("name", nargs="?", default=None,
                             help="campaign name (default: summarize every campaign)")
    camp_status.add_argument("--lease-ttl", type=float, default=None, metavar="SECONDS",
                             help="staleness threshold used to age leases (default 30; "
                                  "match the fleet's --lease-ttl)")
    camp_status.add_argument("--check", action="store_true",
                             help="exit non-zero unless every campaign is complete and no "
                                  "lease is outstanding (for CI smokes and fleet scripts)")
    camp_status.set_defaults(func=_cmd_campaign_status)

    camp_report = camp_sub.add_parser(
        "report", help="assemble the cross-run comparison tables from the store"
    )
    camp_report.add_argument("--store", required=True, help="result-store directory")
    camp_report.add_argument("name", help="campaign name")
    camp_report.add_argument("--quantity", default="source_fanout",
                             choices=list(QUANTITY_NAMES),
                             help="quantity the cell/summary tables report")
    camp_report.set_defaults(func=_cmd_campaign_report)

    srv = subparsers.add_parser(
        "serve", help="run the resident streaming-analysis daemon (repro.service)"
    )
    srv.add_argument("--job", action="append", default=[], metavar="CONFIG.json",
                     help="versioned job-config file to register at startup "
                          "(repeatable; more jobs may be submitted over HTTP)")
    srv.add_argument("--host", default="127.0.0.1", help="bind address")
    srv.add_argument("--port", type=int, default=8732,
                     help="bind port (0 binds an ephemeral port)")
    srv.add_argument("--store", default=None,
                     help="result-store directory job results are flushed into on "
                          "graceful shutdown (and on POST /jobs/<job>/flush)")
    srv.add_argument("--max-batch-bytes", type=int, default=None,
                     help="request-body cap; oversized ingest requests get a "
                          "structured 413 (default 8 MiB)")
    srv.add_argument("--max-buffered-packets", type=int, default=None,
                     help="ingest back-pressure: a job holding this many unfolded "
                          "packets answers ingests with a structured 429 + "
                          "Retry-After until the fold catches up (a job config's "
                          "limits.max_buffered_packets overrides it; default: "
                          "unlimited)")
    srv.add_argument("--checkpoint-every", type=int, default=None, metavar="N",
                     help="write a durable checkpoint of each job's exact fold "
                          "state every N ingested batches (requires --store)")
    srv.add_argument("--checkpoint-seconds", type=float, default=None, metavar="S",
                     help="also checkpoint when S seconds passed since a job's "
                          "last one (requires --store; combines with "
                          "--checkpoint-every)")
    srv.add_argument("--resume", action="store_true",
                     help="restore each job from its newest valid checkpoint in "
                          "--store at startup; feeders then replay unacked "
                          "batches idempotently (requires --store)")
    srv.set_defaults(func=_cmd_serve)

    jobs = subparsers.add_parser(
        "jobs", help="talk to a running 'repro serve' daemon over HTTP"
    )
    jobs_sub = jobs.add_subparsers(dest="jobs_command", required=True)

    jobs_submit = jobs_sub.add_parser("submit", help="submit a job config to the daemon")
    jobs_submit.add_argument("config", help="job-config JSON file")
    jobs_submit.add_argument("--url", required=True, metavar="http://HOST:PORT",
                             help="base URL of the daemon")
    jobs_submit.add_argument("--retries", type=int, default=0,
                             help="retry transport failures (connection refused/reset) "
                                  "this many times with exponential backoff "
                                  "(default 0: fail fast)")
    jobs_submit.set_defaults(func=_cmd_jobs_submit)

    jobs_status = jobs_sub.add_parser("status", help="print daemon or per-job status")
    jobs_status.add_argument("name", nargs="?", default=None,
                             help="job name (default: every job)")
    jobs_status.add_argument("--url", required=True, metavar="http://HOST:PORT",
                             help="base URL of the daemon")
    jobs_status.add_argument("--min-windows", type=int, default=None,
                             help="poll until the job has folded at least this many "
                                  "windows (requires a job name; exits 1 on timeout)")
    jobs_status.add_argument("--timeout", type=float, default=30.0,
                             help="polling deadline in seconds for --min-windows")
    jobs_status.set_defaults(func=_cmd_jobs_status)

    jobs_feed = jobs_sub.add_parser(
        "feed", help="generate a scenario's packet stream and feed it to a job in batches"
    )
    jobs_feed.add_argument("name", help="target job name on the daemon")
    jobs_feed.add_argument("--url", required=True, metavar="http://HOST:PORT",
                           help="base URL of the daemon")
    jobs_feed.add_argument("--scenario", required=True,
                           help="registered scenario name (see 'scenarios list')")
    jobs_feed.add_argument("--seed", type=int, default=0, help="scenario seed")
    jobs_feed.add_argument("--batch-packets", type=int, default=50_000,
                           help="packets per POSTed batch")
    jobs_feed.add_argument("--retries", type=int, default=0,
                           help="retry transport failures (connection refused/reset) "
                                "this many times per batch with exponential backoff "
                                "(default 0: fail fast); daemon 429 back-pressure is "
                                "always honored with backoff regardless")
    jobs_feed.set_defaults(func=_cmd_jobs_feed)

    return parser


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.core.palu_model import PALUParameters
    from repro.generators.palu_graph import generate_palu_graph
    from repro.streaming.trace_generator import TraceConfig, generate_trace_from_graph
    from repro.streaming.trace_io import save_trace, save_trace_sharded

    params = PALUParameters.from_weights(
        args.core, args.leaves, args.unattached, lam=args.lam, alpha=args.alpha, strict=False
    )
    print("PALU parameters:", {k: round(v, 4) for k, v in params.as_dict().items()})
    palu = generate_palu_graph(params, n_nodes=args.nodes, rng=args.seed)
    print(f"underlying network: {palu.n_nodes} nodes, {palu.n_edges} edges")
    config = TraceConfig(
        n_packets=args.packets,
        rate_model="zipf",
        rate_exponent=args.rate_exponent,
        invalid_fraction=args.invalid_fraction,
    )
    trace = generate_trace_from_graph(palu, config, rng=args.seed + 1)
    if args.shard_packets is not None:
        path = save_trace_sharded(
            trace, args.output, shard_packets=args.shard_packets, layout=args.layout
        )
    else:
        if args.layout != "npz":
            print("error: --layout applies to sharded traces; pass --shard-packets too")
            return 2
        path = save_trace(trace, args.output)
    print(f"wrote {trace.n_packets} packets ({trace.n_valid} valid) to {path}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analysis.pooling import pool_probability_vector
    from repro.analysis.reporting import render_pooled_panel
    from repro.analysis.summary import format_table
    from repro.streaming.pipeline import analyze_trace
    from repro.streaming.trace_io import trace_format

    # argparse choices allow repeats; naming a quantity twice means "this one"
    args.quantities = list(dict.fromkeys(args.quantities))
    engine = _engine_kwargs(args)
    if args.chunk_packets is not None and trace_format(args.trace) == 1:
        print("note: v1 .npz archives load whole before chunking; generate with "
              "--shard-packets for true out-of-core reads")
    print(f"reading trace from {args.trace}")
    # the engine reads the stored trace itself, chunk by chunk, on every backend
    analysis = analyze_trace(
        args.trace, args.nv, quantities=tuple(args.quantities), keep_windows=False, **engine
    )
    _print_engine_banner(analysis.engine_stats)
    print(f"{analysis.n_windows} windows of N_V = {args.nv} valid packets\n")
    print("Table-I aggregates per window:")
    print(format_table(analysis.aggregates_table()))
    if analysis.bounds:
        print("\nsketch error bounds (merged estimates):")
        print(format_table(_sketch_bounds_rows(analysis.bounds)))
    rows = []
    for quantity in args.quantities:
        pooled = analysis.pooled(quantity)
        fit = analysis.fit_zipf_mandelbrot(quantity)
        rows.append(
            {
                "quantity": quantity,
                "alpha": round(fit.alpha, 3),
                "delta": round(fit.delta, 3),
                "D(d=1)": round(float(pooled.values[0]), 4),
                "dmax": analysis.dmax(quantity),
                "log_mse": round(fit.error, 5),
            }
        )
    print("\nZipf-Mandelbrot fits per quantity:")
    print(format_table(rows))
    if args.panel:
        for quantity in args.quantities:
            pooled = analysis.pooled(quantity)
            fit = analysis.fit_zipf_mandelbrot(quantity)
            model_pooled = pool_probability_vector(fit.model().probability())
            print()
            print(render_pooled_panel(pooled, model_pooled, title=f"{quantity} (α={fit.alpha:.2f}, δ={fit.delta:.2f})"))
    return 0


def _cmd_fit(args: argparse.Namespace) -> int:
    from repro.analysis.comparison import compare_models
    from repro.analysis.pooling import pool_differential_cumulative
    from repro.analysis.summary import format_table
    from repro.core.distributions import DiscretePowerLaw
    from repro.core.palu_fit import fit_palu
    from repro.core.powerlaw_fit import fit_power_law
    from repro.core.zm_fit import fit_zipf_mandelbrot
    from repro.streaming.pipeline import analyze_trace

    analysis = analyze_trace(args.trace, args.nv, quantities=(args.quantity,), keep_windows=False)
    hist = analysis.merged_histogram(args.quantity)
    pooled = pool_differential_cumulative(hist)

    zm = fit_zipf_mandelbrot(pooled, dmax=hist.dmax)
    palu = fit_palu(hist)
    baseline = fit_power_law(hist, d_min=1)
    print(f"quantity: {args.quantity}   observations: {hist.total}   dmax: {hist.dmax}\n")
    print("Zipf-Mandelbrot:", zm.as_row())
    print("PALU (reduced): ", palu.as_row())
    print("power law:      ", baseline.as_row())

    comparison = compare_models(
        hist,
        pooled,
        {
            "zipf_mandelbrot": zm.model().distribution(),
            "palu": palu.distribution(hist.dmax),
            "power_law": DiscretePowerLaw(baseline.alpha, hist.dmax),
        },
        n_parameters={"zipf_mandelbrot": 2, "palu": 5, "power_law": 1},
    )
    print("\nmodel comparison (best first):")
    print(format_table([c.as_row() for c in comparison]))
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro import experiments as exp
    from repro.analysis.summary import format_table

    runners = {
        "table1": lambda: exp.run_table1(),
        "fig1": lambda: exp.run_fig1(),
        "fig2": lambda: exp.run_fig2(),
        "fig3": lambda: exp.run_fig3(),
        "fig4": lambda: exp.run_fig4(),
        "expectations": lambda: exp.run_palu_expectations(),
        "recovery": lambda: exp.run_palu_recovery(),
        "ablations": lambda: (
            exp.run_window_invariance_ablation()
            + [exp.run_lambda_estimator_ablation()]
            + exp.run_webcrawl_ablation()
        ),
    }
    store = None
    if args.store is not None:
        from repro.campaigns.store import ResultStore

        store = ResultStore(args.store)

    for name in args.which:
        header = f"\n=== {name} ==="
        if store is not None:
            # the drivers take no arguments here, so the name is the key
            rows, cached = store.cached_rows(name, {}, runners[name])
            header += " [cached]" if cached else " [computed]"
        else:
            rows = runners[name]()
        print(header)
        if isinstance(rows, dict):
            rows = [rows]
        print(format_table(rows))
    return 0


def _cmd_scenarios_list(args: argparse.Namespace) -> int:
    from repro.analysis.summary import format_table
    from repro.scenarios import iter_scenarios

    rows = [
        {
            "name": scenario.name,
            "phases": scenario.n_phases,
            "packets": scenario.n_packets,
            "crossfade": scenario.crossfade_packets,
            "description": scenario.description,
        }
        for scenario in iter_scenarios()
    ]
    print(format_table(rows))
    return 0


def _run_scenario(args: argparse.Namespace, **analysis_kwargs):
    """The shared body of ``scenarios run`` and ``detect run``.

    Looks the scenario up, prints its header, runs it through the engine
    with the shared engine flags plus *analysis_kwargs*, and prints the
    engine banner.  Raises ``ValueError`` with a one-line message on a bad
    invocation.
    """
    from repro.scenarios import analyze_scenario, get_scenario

    engine = _engine_kwargs(args)
    try:
        scenario = get_scenario(args.name)
    except KeyError as error:
        raise ValueError(error.args[0]) from None
    print(f"scenario {scenario.name!r}: {scenario.n_phases} phases, "
          f"{scenario.n_packets} packets, crossfade {scenario.crossfade_packets}")
    run = analyze_scenario(
        scenario, args.nv, seed=args.seed, keep_windows=False, **engine, **analysis_kwargs
    )
    _print_engine_banner(run.engine_stats)
    return run


def _cmd_scenarios_run(args: argparse.Namespace) -> int:
    from repro.analysis.summary import format_table

    args.quantities = list(dict.fromkeys(args.quantities))
    run = _run_scenario(args, quantities=tuple(args.quantities))
    print(f"{run.analysis.n_windows} windows of N_V = {args.nv} valid packets")
    for quantity in args.quantities:
        print(f"\nphase summary — {quantity}:")
        print(format_table(run.phases.as_rows(quantity)))
        drifts = run.phases.drift(quantity)
        if drifts:
            worst = max(drifts, key=lambda d: d.score)
            print(f"max adjacent-phase drift: {worst.score:.4f} "
                  f"(phase {worst.phase_a} → {worst.phase_b})")
        else:
            print("single occupied phase; no adjacent-phase drift")
    return 0


def _cmd_detect_list(args: argparse.Namespace) -> int:
    from repro.analysis.summary import format_table
    from repro.detect import get_detector

    rows = []
    for name in DETECTOR_NAMES:
        detector = get_detector(name)
        params = dict(detector.params())
        rows.append(
            {
                "detector": name,
                "class": type(detector).__name__,
                "params": " ".join(f"{k}={v}" for k, v in params.items()),
            }
        )
    print(format_table(rows))
    return 0


def _cmd_detect_run(args: argparse.Namespace) -> int:
    from repro.analysis.summary import format_table
    from repro.detect import evaluate_run
    from repro.detect.evaluate import true_change_windows

    if args.max_latency < 0:
        print(f"error: --max-latency must be >= 0, got {args.max_latency}")
        return 2
    run = _run_scenario(
        args,
        # argparse choices allow repeats; asking for a detector twice just
        # means "this one", so dedupe rather than error
        detectors=tuple(dict.fromkeys(args.detectors)),
        detect_quantity=args.quantity,
    )
    detection = run.detection
    boundaries = true_change_windows(run.phases.window_phase)
    print(f"{detection.n_windows} windows of N_V = {args.nv} valid packets; "
          f"monitoring {detection.quantity!r}")
    print("true phase-boundary windows: "
          + (" ".join(str(b) for b in boundaries) or "none (single regime)"))
    print("\nalarms per detector:")
    print(format_table(detection.as_rows()))
    print(f"\nevaluation vs ground truth (max latency {args.max_latency} windows):")
    evaluations = evaluate_run(run, max_latency=args.max_latency)
    print(format_table([ev.as_row() for ev in evaluations]))
    return 0


def _cmd_campaign_run(args: argparse.Namespace) -> int:
    from repro.analysis.summary import format_table
    from repro.campaigns import DEFAULT_LEASE_TTL_SECONDS, Campaign, parse_worker_id, run_campaign

    try:
        if args.worker_id is not None:
            worker_index, workers = parse_worker_id(args.worker_id)
            if args.workers not in (1, workers):
                raise ValueError(
                    f"--worker-id {args.worker_id} names a fleet of {workers} "
                    f"but --workers says {args.workers}"
                )
        else:
            worker_index, workers = 1, args.workers
        campaign = Campaign(
            args.name,
            # a value listed twice on the command line means "this one"
            scenarios=tuple(dict.fromkeys(args.scenarios)),
            seeds=tuple(dict.fromkeys(args.seeds)),
            n_valids=tuple(dict.fromkeys(args.nv)),
            quantities=tuple(dict.fromkeys(args.quantities)),
            detectors=tuple(dict.fromkeys(args.detectors)),
            modes=tuple(dict.fromkeys(args.modes)),
            sketch=_sketch_from_args(args),
            chunk_packets=args.chunk_packets,
        )
    except KeyError as error:
        print(f"error: {error.args[0]}")
        return 2
    fleet = f" (worker {worker_index}/{workers})" if workers > 1 else ""
    print(f"campaign {campaign.name!r}: {campaign.n_cells} cells -> store {args.store}{fleet}")
    run = run_campaign(
        campaign,
        args.store,
        pool=args.pool,
        pool_workers=args.pool_workers,
        max_cells=args.max_cells,
        recompute=args.recompute,
        cell_retries=args.cell_retries,
        workers=workers,
        worker_index=worker_index,
        lease_ttl=DEFAULT_LEASE_TTL_SECONDS if args.lease_ttl is None else args.lease_ttl,
        heartbeat_seconds=args.heartbeat,
    )
    print(format_table(run.as_rows()))
    print(f"\ncomputed {run.n_computed}, cached {run.n_cached}, "
          f"failed {run.n_failed}, skipped {run.n_skipped}"
          + ("" if run.n_skipped == 0 else " — re-run to resume the skipped cells"))
    if run.n_failed:
        for line in run.failure_lines():
            print(line)
        return 1
    return 0


def _open_store_readonly(path: str):
    """Open an existing result store without creating one at a mistyped path."""
    from repro.campaigns import ResultStore

    if not (Path(path) / "store.json").is_file():
        raise KeyError(f"no result store at {path} (create one with 'repro campaign run')")
    return ResultStore(path)


def _cmd_campaign_status(args: argparse.Namespace) -> int:
    from repro.analysis.summary import format_table
    from repro.campaigns import DEFAULT_LEASE_TTL_SECONDS, fleet_status_rows, lease_rows

    ttl = DEFAULT_LEASE_TTL_SECONDS if args.lease_ttl is None else args.lease_ttl
    try:
        store = _open_store_readonly(args.store)
    except KeyError as error:
        print(f"error: {error.args[0]}")
        return 2
    names = [args.name] if args.name is not None else list(store.campaign_names())
    try:
        rows = fleet_status_rows(store, names, ttl=ttl)
    except KeyError as error:
        print(f"error: {error.args[0]}")
        return 2
    if not rows:
        print(f"no campaigns recorded in store {store.root}")
        return 0
    print(format_table(rows))
    leases = lease_rows(store, ttl=ttl)
    if leases:
        print("\noutstanding leases:")
        print(format_table(leases))
    if args.check:
        incomplete = [row["campaign"] for row in rows if not row["complete"]]
        problems = []
        if incomplete:
            problems.append(f"incomplete campaign(s): {', '.join(incomplete)}")
        if leases:
            problems.append(f"{len(leases)} outstanding lease(s)")
        if problems:
            print("check failed: " + "; ".join(problems))
            return 1
        print("check passed: all campaigns complete, no outstanding leases")
    return 0


def _cmd_campaign_report(args: argparse.Namespace) -> int:
    from repro.campaigns import CampaignReport

    try:
        report = CampaignReport.from_store(_open_store_readonly(args.store), args.name)
        rendered = report.render(args.quantity)
    except KeyError as error:
        # unknown store/campaign, or a quantity the campaign never analysed
        print(f"error: {error.args[0]}")
        return 2
    print(rendered)
    if not report.complete:
        print(f"\nnote: {len(report.missing)} cells missing — "
              f"'repro campaign run' with the same grid resumes them")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.config import load_job_config
    from repro.service.server import DEFAULT_MAX_BATCH_BYTES, serve

    configs = [load_job_config(path) for path in args.job]
    names = [config.name for config in configs]
    if len(set(names)) != len(names):
        print(f"error: duplicate job names across --job files: {sorted(names)}")
        return 2
    if args.store is not None and Path(args.store).is_file():
        print(f"error: --store {args.store} is a file, not a directory")
        return 2
    max_batch = DEFAULT_MAX_BATCH_BYTES if args.max_batch_bytes is None else args.max_batch_bytes
    if max_batch <= 0:
        print(f"error: --max-batch-bytes must be positive, got {max_batch}")
        return 2
    if args.max_buffered_packets is not None and args.max_buffered_packets < 1:
        print(f"error: --max-buffered-packets must be >= 1, got {args.max_buffered_packets}")
        return 2
    wants_durability = (
        args.checkpoint_every is not None
        or args.checkpoint_seconds is not None
        or args.resume
    )
    if wants_durability and args.store is None:
        print("error: --checkpoint-every/--checkpoint-seconds/--resume require --store")
        return 2
    if args.checkpoint_every is not None and args.checkpoint_every < 1:
        print(f"error: --checkpoint-every must be >= 1, got {args.checkpoint_every}")
        return 2
    if args.checkpoint_seconds is not None and args.checkpoint_seconds <= 0:
        print(f"error: --checkpoint-seconds must be > 0, got {args.checkpoint_seconds}")
        return 2
    try:
        return serve(
            configs,
            host=args.host,
            port=args.port,
            store_root=args.store,
            max_batch_bytes=max_batch,
            max_buffered_packets=args.max_buffered_packets,
            checkpoint_every=args.checkpoint_every,
            checkpoint_seconds=args.checkpoint_seconds,
            resume=args.resume,
        )
    except OSError as error:
        # most commonly EADDRINUSE: another process owns the port
        print(f"error: cannot serve on {args.host}:{args.port}: {error}")
        return 2


def _daemon_request(url: str, *, data: bytes | None = None, timeout: float = 10.0):
    """One JSON request to the daemon: ``(status, body_dict, headers)``.

    HTTP-level errors still carry the daemon's structured JSON body;
    transport failures (connection refused, timeouts) raise ``OSError``.
    Header names in the returned mapping are lower-cased.
    """
    import json
    import urllib.error
    import urllib.request

    request = urllib.request.Request(
        url, data=data, method="POST" if data is not None else "GET"
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            headers = {name.lower(): value for name, value in response.headers.items()}
            return response.status, json.loads(response.read().decode("utf-8")), headers
    except urllib.error.HTTPError as error:
        headers = {name.lower(): value for name, value in (error.headers or {}).items()}
        body = error.read().decode("utf-8", errors="replace")
        try:
            return error.code, json.loads(body), headers
        except json.JSONDecodeError:
            return error.code, {"error": {"code": "http", "message": body.strip()}}, headers


def _daemon_request_patient(
    url: str,
    *,
    data: bytes | None = None,
    timeout: float = 10.0,
    retries: int = 0,
    backpressure_deadline: float = 60.0,
):
    """A :func:`_daemon_request` that rides out transient failures.

    Transport failures (connection refused/reset) are retried up to
    *retries* times with capped exponential backoff + jitter — opt-in, so
    the default stays fail-fast.  A 429 back-pressure response is *always*
    honored: the client sleeps at least the daemon's ``Retry-After`` (with
    backoff + jitter on repeats) and retries until *backpressure_deadline*
    seconds have been spent waiting, after which the 429 is returned for
    the caller to surface.
    """
    import random
    import time

    transport_failures = 0
    backpressure_delay = 0.0
    waited = 0.0
    while True:
        try:
            status, body, headers = _daemon_request(url, data=data, timeout=timeout)
        except OSError:
            if transport_failures >= retries:
                raise
            transport_failures += 1
            # 0.25s, 0.5s, 1s, ... capped at 5s, each scaled by 0.5-1.0 jitter
            pause = min(5.0, 0.25 * 2 ** (transport_failures - 1))
            time.sleep(pause * (0.5 + random.random() / 2))
            continue
        if status == 429:
            try:
                retry_after = float(headers.get("retry-after", 1.0))
            except ValueError:
                retry_after = 1.0
            backpressure_delay = min(5.0, max(retry_after, backpressure_delay * 2))
            pause = backpressure_delay * (0.5 + random.random() / 2)
            if waited + pause > backpressure_deadline:
                return status, body, headers
            time.sleep(pause)
            waited += pause
            continue
        return status, body, headers


def _daemon_error_line(status: int, body: dict) -> str:
    error = body.get("error", {}) if isinstance(body, dict) else {}
    code = error.get("code", "http")
    message = error.get("message", f"daemon replied with status {status}")
    return f"error: daemon rejected the request ({code}): {message}"


def _cmd_jobs_submit(args: argparse.Namespace) -> int:
    from repro.service.config import load_job_config

    config = load_job_config(args.config)
    import json

    payload = json.dumps(config.as_dict()).encode("utf-8")
    try:
        status, body, _headers = _daemon_request_patient(
            f"{args.url.rstrip('/')}/jobs", data=payload, retries=args.retries
        )
    except OSError as error:
        print(f"error: cannot reach daemon at {args.url}: {error}")
        return 2
    if status != 200:
        print(_daemon_error_line(status, body))
        return 1
    print(f"submitted job {body['job']!r} (config {body['config_hash'][:12]})")
    return 0


def _cmd_jobs_status(args: argparse.Namespace) -> int:
    import time

    from repro.analysis.summary import format_table

    if args.min_windows is not None and args.name is None:
        print("error: --min-windows requires a job name")
        return 2
    base = args.url.rstrip("/")
    url = f"{base}/status" if args.name is None else f"{base}/status/{args.name}"
    deadline = time.monotonic() + args.timeout
    while True:
        try:
            status, body, _headers = _daemon_request(url)
        except OSError as error:
            print(f"error: cannot reach daemon at {args.url}: {error}")
            return 2
        if status != 200:
            print(_daemon_error_line(status, body))
            return 1
        if args.min_windows is None:
            break
        if body.get("windows_folded", 0) >= args.min_windows:
            break
        if time.monotonic() >= deadline:
            print(f"error: job {args.name!r} reached only "
                  f"{body.get('windows_folded', 0)}/{args.min_windows} windows "
                  f"within {args.timeout:.0f}s")
            return 1
        time.sleep(0.1)
    entries = body["jobs"] if args.name is None else [body]
    if not entries:
        print("no jobs registered")
        return 0
    rows = [
        {
            "job": entry["name"],
            "windows": entry["windows_folded"],
            "buffered": entry["packets_buffered"],
            "alarms": entry["alarms_raised"],
            "errors": entry["errors"],
            "uptime_s": entry["uptime_seconds"],
            "config": entry["config_hash"][:12],
        }
        for entry in entries
    ]
    print(format_table(rows))
    return 0


def _cmd_jobs_feed(args: argparse.Namespace) -> int:
    import json

    from repro.scenarios import get_scenario
    from repro.scenarios.source import ScenarioTraceSource

    try:
        scenario = get_scenario(args.scenario)
    except KeyError as error:
        print(f"error: {error.args[0]}")
        return 2
    if args.batch_packets <= 0:
        print(f"error: --batch-packets must be positive, got {args.batch_packets}")
        return 2
    source = ScenarioTraceSource(scenario, seed=args.seed, chunk_packets=args.batch_packets)
    base = args.url.rstrip("/")
    batches = replayed = windows = 0
    # each batch carries a deterministic sequence number (its 1-based index
    # in the scenario stream), so re-running the same feed after a daemon
    # crash replays from seq 1 and every already-acked prefix batch is a
    # duplicate no-op on the server — idempotent crash recovery
    for seq, chunk in enumerate(source, start=1):
        packets = chunk.packets
        line = json.dumps(
            {
                "src": packets["src"].tolist(),
                "dst": packets["dst"].tolist(),
                "time": packets["time"].tolist(),
                "size": packets["size"].tolist(),
                "valid": packets["valid"].tolist(),
            }
        )
        try:
            status, body, _headers = _daemon_request_patient(
                f"{base}/ingest/{args.name}?seq={seq}",
                data=(line + "\n").encode("utf-8"),
                retries=args.retries,
            )
        except OSError as error:
            print(f"error: cannot reach daemon at {args.url}: {error}")
            return 2
        if status != 200:
            print(_daemon_error_line(status, body))
            return 1
        batches += 1
        if body.get("duplicate"):
            replayed += 1
        windows = body["windows_folded"]
    skipped = f", {replayed} already acked" if replayed else ""
    print(f"fed scenario {scenario.name!r} (seed {args.seed}) to job {args.name!r}: "
          f"{batches} batches{skipped}, {windows} windows folded")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    A ``ValueError`` from a command — an input the library rejects — or a
    ``FileNotFoundError`` — a path that holds nothing — prints one
    ``error:`` line and exits 2 instead of a traceback.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return int(args.func(args))
    except (ValueError, FileNotFoundError) as error:
        print(f"error: {error}")
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    sys.exit(main())
