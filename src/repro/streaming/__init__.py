"""Streaming-traffic substrate: traces, windows, the sparse image ``A_t``.

The paper's measurements come from Internet observatories that aggregate
``N_V`` consecutive valid packets into a sparse source×destination matrix
``A_t`` and compute the Table-I / Figure-1 quantities from it.  This
subpackage provides a laptop-scale replacement for that pipeline:

* :mod:`repro.streaming.packet` — packet record arrays and the
  :class:`PacketTrace` container,
* :mod:`repro.streaming.trace_generator` — synthetic traffic streams replayed
  from an underlying (PALU) network,
* :mod:`repro.streaming.window` — fixed-``N_V`` windowing,
* :mod:`repro.streaming.sparse_image` — the sparse matrix ``A_t``
  (compatibility view; the hot path no longer builds it),
* :mod:`repro.streaming.aggregates` — Table-I aggregates and Figure-1
  per-node/per-link quantities computed from the matrix,
* :mod:`repro.streaming.kernel` — the fused sort-based window kernel that
  computes all of the above in one pass over packed ``(src, dst)`` keys,
* :mod:`repro.streaming.pipeline` — the single-pass analysis engine:
  trace → windows → histograms → running pooled distributions, executed on a
  pluggable backend (:mod:`repro.streaming.parallel` — serial, or a lazily
  fed process pool with a bounded number of tasks in flight),
* :mod:`repro.streaming.shm` — the shared-memory zero-copy payload transport
  the process backend defaults to where the platform supports it.
"""

from repro._util.lazy import lazy_exports

__all__ = [
    "AggregateProperties",
    "compute_aggregates",
    "compute_aggregates_summation",
    "network_quantities",
    "PACKET_DTYPE",
    "PacketTrace",
    "concatenate_traces",
    "BACKEND_NAMES",
    "ExecutionBackend",
    "SerialBackend",
    "ProcessBackend",
    "get_backend",
    "MODE_NAMES",
    "StreamAnalyzer",
    "WindowedAnalysis",
    "analyze_trace",
    "analyze_window",
    "analyze_window_image",
    "analyze_window_sketch",
    "DEFAULT_SKETCH_CONFIG",
    "SketchBounds",
    "SketchConfig",
    "WindowSketch",
    "build_sketch",
    "sketch_products",
    "default_worker_count",
    "usable_cpu_count",
    "shutdown_shared_pools",
    "TRANSPORT_NAMES",
    "default_payload_transport",
    "publish_payloads",
    "reap_orphaned_segments",
    "shm_supported",
    "KERNEL_MAX_ID",
    "fused_products",
    "image_products",
    "window_payload",
    "TrafficImage",
    "traffic_image",
    "TraceConfig",
    "generate_trace",
    "generate_trace_from_graph",
    "ANALYSIS_COLUMNS",
    "LAYOUT_NAMES",
    "iter_trace_chunks",
    "load_trace",
    "rechunk",
    "save_trace",
    "save_trace_sharded",
    "trace_format",
    "WEIGHTED_QUANTITY_NAMES",
    "byte_histograms",
    "byte_image",
    "weighted_quantities",
    "PushWindower",
    "count_windows",
    "iter_windows",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".aggregates": (
            "AggregateProperties", "compute_aggregates", "compute_aggregates_summation",
            "network_quantities",
        ),
        ".packet": ("PACKET_DTYPE", "PacketTrace", "concatenate_traces"),
        ".kernel": ("KERNEL_MAX_ID", "fused_products", "image_products", "window_payload"),
        ".parallel": (
            "BACKEND_NAMES", "ExecutionBackend", "ProcessBackend", "SerialBackend",
            "default_worker_count", "get_backend", "shutdown_shared_pools", "usable_cpu_count",
        ),
        ".pipeline": (
            "MODE_NAMES", "StreamAnalyzer", "WindowedAnalysis", "analyze_trace",
            "analyze_window", "analyze_window_image", "analyze_window_sketch",
        ),
        ".shm": (
            "TRANSPORT_NAMES", "default_payload_transport", "publish_payloads",
            "reap_orphaned_segments", "shm_supported",
        ),
        ".sketch": (
            "DEFAULT_SKETCH_CONFIG", "SketchBounds", "SketchConfig", "WindowSketch",
            "build_sketch", "sketch_products",
        ),
        ".sparse_image": ("TrafficImage", "traffic_image"),
        ".trace_generator": ("TraceConfig", "generate_trace", "generate_trace_from_graph"),
        ".trace_io": (
            "ANALYSIS_COLUMNS", "LAYOUT_NAMES", "iter_trace_chunks", "load_trace", "rechunk",
            "save_trace", "save_trace_sharded", "trace_format",
        ),
        ".weighted": (
            "WEIGHTED_QUANTITY_NAMES", "byte_histograms", "byte_image", "weighted_quantities",
        ),
        ".window": ("PushWindower", "count_windows", "iter_windows"),
    },
)
