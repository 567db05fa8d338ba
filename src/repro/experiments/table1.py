"""Table I — aggregate network properties.

The paper's Table I is definitional: it lists four aggregates of the window
matrix ``A_t`` in summation and matrix notation.  The reproduction therefore
(1) computes both notations on synthetic windows of several sizes and checks
they agree, and (2) reports the aggregate values per window — the rows a
reader would use to sanity-check their own pipeline.
"""

from __future__ import annotations

from typing import Sequence

from repro._util.rng import RNGLike
from repro.experiments.config import default_palu_parameters
from repro.generators.palu_graph import generate_palu_graph
from repro.streaming.aggregates import compute_aggregates, compute_aggregates_summation
from repro.streaming.sparse_image import traffic_image
from repro.streaming.trace_generator import generate_trace
from repro.streaming.window import iter_windows

__all__ = ["run_table1"]


def run_table1(
    *,
    window_sizes: Sequence[int] = (10_000, 100_000),
    n_nodes: int = 20_000,
    rng: RNGLike = 20210329,
) -> list:
    """Regenerate Table I on synthetic traffic.

    For each requested window size ``N_V``, generate a trace long enough for
    one window, build ``A_t``, and report the four aggregates computed in
    both notations plus whether they agree.

    Returns
    -------
    list of dict
        One row per window size with keys ``NV``, ``valid_packets``,
        ``unique_links``, ``unique_sources``, ``unique_destinations``, and
        ``notations_agree``.
    """
    params = default_palu_parameters()
    graph = generate_palu_graph(params, n_nodes=n_nodes, rng=rng)
    rows = []
    for n_valid in window_sizes:
        trace = generate_trace(graph, int(n_valid * 1.05), rng=rng)
        window = next(iter_windows(trace, n_valid))
        image = traffic_image(window)
        matrix_form = compute_aggregates(image)
        summation_form = compute_aggregates_summation(image)
        row = {"NV": n_valid}
        row.update(matrix_form.as_row())
        row["notations_agree"] = matrix_form == summation_form
        rows.append(row)
    return rows
