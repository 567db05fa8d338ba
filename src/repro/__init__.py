"""repro — reproduction of "Hybrid Power-Law Models of Network Traffic".

The package is organised into five subpackages:

* :mod:`repro.core` — the paper's contribution: the modified Zipf–Mandelbrot
  model and its fit, the PALU generative model, its closed-form observed-
  network expectations, the reduced-parameter fitting recipe, and the
  PALU↔ZM connection of Equation (5).
* :mod:`repro.generators` — generative-network substrate: preferential
  attachment, configuration model, Erdős–Rényi edge sampling, Poisson star
  components, and the full PALU underlying-network builder.
* :mod:`repro.streaming` — traffic-observatory substrate: synthetic packet
  traces, fixed-valid-packet windowing, the sparse traffic image ``A_t``,
  the Table-I aggregates, and the end-to-end analysis pipeline.
* :mod:`repro.analysis` — degree histograms, binary-log pooling, topology
  decomposition, residual moments, phase-segmented drift analysis, and
  goodness-of-fit comparison.
* :mod:`repro.scenarios` — time-varying workloads: declarative multi-phase
  scenarios (drifting exponents, flash crowds, changing graph families)
  emitted as lazy chunk streams through the single-pass engine.
* :mod:`repro.campaigns` — sweep orchestration: parameter grids over
  scenarios × seeds × window sizes × modes, expanded into content-hashed
  run specs, fanned out across a process pool, and persisted in an on-disk
  result store so finished cells are never recomputed.
* :mod:`repro.detect` — online drift detection: streaming change-point
  detectors (EWMA / CUSUM / Page–Hinkley) riding the single-pass engine in
  O(bins) memory, scored against scenario ground truth.

Quickstart::

    import repro

    params = repro.PALUParameters.from_weights(0.5, 0.2, 0.3, lam=2.0, alpha=2.0)
    graph = repro.generate_palu_graph(params, n_nodes=20_000, seed=7)
    observed = repro.sample_edges(graph.graph, p=0.4, seed=8)
    hist = repro.degree_histogram([d for _, d in observed.degree() if d > 0])
    fit = repro.fit_zipf_mandelbrot_histogram(hist)
    print(fit.as_row())
"""

from repro._util.lazy import lazy_exports

__version__ = "1.0.0"

__all__ = [
    "analysis",
    "campaigns",
    "core",
    "detect",
    "generators",
    "scenarios",
    "streaming",
    # detect
    "DETECTOR_NAMES",
    "DetectingAnalyzer",
    "DetectionResult",
    "DetectorEvaluation",
    "DriftDetector",
    "evaluate_detectors",
    "evaluate_run",
    "get_detector",
    # campaigns
    "Campaign",
    "CampaignReport",
    "CampaignRun",
    "ResultStore",
    "RunSpec",
    "run_campaign",
    # analysis
    "PhaseSegmentedAnalysis",
    "DegreeHistogram",
    "PooledDistribution",
    "aggregate_pooled",
    "compare_models",
    "decompose_topology",
    "degree_histogram",
    "pool_differential_cumulative",
    "summarize_graph",
    # core
    "FIG4_PANELS",
    "DiscretePowerLaw",
    "PALUDegreeDistribution",
    "PALUFitResult",
    "PALUParameters",
    "PowerLawFitResult",
    "ZipfMandelbrotDistribution",
    "ZipfMandelbrotModel",
    "ZMFitResult",
    "curve_family",
    "degree_distribution",
    "expected_class_fractions",
    "expected_degree_fractions",
    "expected_degree_one_fraction",
    "fit_palu",
    "fit_power_law",
    "fit_zipf_mandelbrot",
    "fit_zipf_mandelbrot_histogram",
    "reduced_parameters",
    "riemann_zeta",
    "visible_fraction",
    # generators
    "generate_erdos_renyi",
    "generate_palu_graph",
    "generate_poisson_stars",
    "generate_preferential_attachment",
    "sample_edges",
    "webcrawl_sample",
    # scenarios
    "Phase",
    "Scenario",
    "ScenarioTraceSource",
    "analyze_scenario",
    "get_scenario",
    "register_scenario",
    "scenario_names",
    # streaming
    "PacketTrace",
    "StreamAnalyzer",
    "TrafficImage",
    "WindowedAnalysis",
    "analyze_trace",
    "compute_aggregates",
    "generate_trace",
    "get_backend",
    "iter_trace_chunks",
    "iter_windows",
    "save_trace_sharded",
    "traffic_image",
    "__version__",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".campaigns": (
            "Campaign", "CampaignReport", "CampaignRun", "ResultStore", "RunSpec",
            "run_campaign",
        ),
        ".analysis": (
            "PhaseSegmentedAnalysis", "DegreeHistogram", "PooledDistribution",
            "aggregate_pooled", "compare_models", "decompose_topology", "degree_histogram",
            "pool_differential_cumulative", "summarize_graph",
        ),
        ".core": (
            "FIG4_PANELS", "DiscretePowerLaw", "PALUDegreeDistribution", "PALUFitResult",
            "PALUParameters", "PowerLawFitResult", "ZipfMandelbrotDistribution",
            "ZipfMandelbrotModel", "ZMFitResult", "curve_family", "degree_distribution",
            "expected_class_fractions", "expected_degree_fractions",
            "expected_degree_one_fraction", "fit_palu", "fit_power_law", "fit_zipf_mandelbrot",
            "fit_zipf_mandelbrot_histogram", "reduced_parameters", "riemann_zeta",
            "visible_fraction",
        ),
        ".generators": (
            "generate_erdos_renyi", "generate_palu_graph", "generate_poisson_stars",
            "generate_preferential_attachment", "sample_edges", "webcrawl_sample",
        ),
        ".detect": (
            "DETECTOR_NAMES", "DetectingAnalyzer", "DetectionResult", "DetectorEvaluation",
            "DriftDetector", "evaluate_detectors", "evaluate_run", "get_detector",
        ),
        ".scenarios": (
            "Phase", "Scenario", "ScenarioTraceSource", "analyze_scenario", "get_scenario",
            "register_scenario", "scenario_names",
        ),
        ".streaming": (
            "PacketTrace", "StreamAnalyzer", "TrafficImage", "WindowedAnalysis",
            "analyze_trace", "compute_aggregates", "generate_trace", "get_backend",
            "iter_trace_chunks", "iter_windows", "save_trace_sharded", "traffic_image",
        ),
    },
    submodules=(
        "analysis", "campaigns", "core", "detect", "generators", "scenarios", "streaming",
    ),
)
