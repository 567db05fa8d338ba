"""Statistical analysis of observed networks and degree data.

This subpackage implements the measurement side of the paper's Section II:
degree histograms, the binary-logarithmic *pooling* of differential
cumulative probabilities, cross-window means and standard deviations, the
residual-moment sums used by the PALU ``Λ`` estimator, topological
decomposition of traffic graphs (core / supernode leaves / core leaves /
unattached links, Figure 2), and goodness-of-fit comparisons between
empirical and model distributions.
"""

from repro._util.lazy import lazy_exports

__all__ = [
    "average_clustering",
    "clustering_by_degree",
    "clustering_summary",
    "local_clustering",
    "FitComparison",
    "chi_square_statistic",
    "compare_models",
    "ks_statistic",
    "log_likelihood",
    "pooled_relative_error",
    "DegreeHistogram",
    "cumulative_probability",
    "degree_histogram",
    "probability_from_counts",
    "StreamingMoments",
    "residual_moment_ratio",
    "residual_moment_sums",
    "PhaseDrift",
    "PhaseSegmentedAnalysis",
    "PhaseSegmentedAnalyzer",
    "PooledDistribution",
    "aggregate_pooled",
    "log2_bin_edges",
    "log2_bin_index",
    "pool_differential_cumulative",
    "NetworkSummary",
    "format_table",
    "render_pooled_panel",
    "render_series_comparison",
    "summarize_graph",
    "summarize_window",
    "TopologyDecomposition",
    "decompose_topology",
    "find_supernodes",
    "max_degree",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".clustering": (
            "average_clustering", "clustering_by_degree", "clustering_summary",
            "local_clustering",
        ),
        ".comparison": (
            "FitComparison", "chi_square_statistic", "compare_models", "ks_statistic",
            "log_likelihood", "pooled_relative_error",
        ),
        ".histogram": (
            "DegreeHistogram", "cumulative_probability", "degree_histogram",
            "probability_from_counts",
        ),
        ".moments": ("StreamingMoments", "residual_moment_ratio", "residual_moment_sums"),
        ".phases": ("PhaseDrift", "PhaseSegmentedAnalysis", "PhaseSegmentedAnalyzer"),
        ".pooling": (
            "PooledDistribution", "aggregate_pooled", "log2_bin_edges", "log2_bin_index",
            "pool_differential_cumulative",
        ),
        ".reporting": ("render_pooled_panel", "render_series_comparison"),
        ".summary": ("NetworkSummary", "format_table", "summarize_graph", "summarize_window"),
        ".topology": (
            "TopologyDecomposition", "decompose_topology", "find_supernodes", "max_degree",
        ),
    },
)
