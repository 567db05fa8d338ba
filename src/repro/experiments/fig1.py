"""Figure 1 — streaming network traffic quantities.

Figure 1 is a schematic showing how a window of ``N_V`` valid packets is
divided into five quantities: source packets, source fan-out, link packets,
destination fan-in, and destination packets.  The reproduction computes all
five from a synthetic window and reports, for each, the number of entities,
the total (which must equal ``N_V`` for the packet-count quantities), the
largest value, and the fraction of entities at value 1 — the numbers the
schematic is illustrating.
"""

from __future__ import annotations

from repro._util.rng import RNGLike
from repro.analysis.histogram import degree_histogram
from repro.experiments.config import default_palu_parameters
from repro.generators.palu_graph import generate_palu_graph
from repro.streaming.aggregates import QUANTITY_NAMES, network_quantities
from repro.streaming.sparse_image import traffic_image
from repro.streaming.trace_generator import generate_trace
from repro.streaming.window import iter_windows

__all__ = ["run_fig1"]


def run_fig1(
    *,
    n_valid: int = 100_000,
    n_nodes: int = 20_000,
    rng: RNGLike = 20210329,
) -> list:
    """Regenerate the Figure-1 quantity breakdown for one synthetic window.

    Returns
    -------
    list of dict
        One row per quantity with keys ``quantity``, ``n_entities``,
        ``total``, ``max``, and ``frac_at_1``.
    """
    params = default_palu_parameters()
    graph = generate_palu_graph(params, n_nodes=n_nodes, rng=rng)
    trace = generate_trace(graph, int(n_valid * 1.05), rate_model="zipf", rng=rng)
    window = next(iter_windows(trace, n_valid))
    image = traffic_image(window)
    quantities = network_quantities(image)
    rows = []
    for name in QUANTITY_NAMES:
        values = quantities[name]
        hist = degree_histogram(values[values > 0])
        rows.append(
            {
                "quantity": name,
                "n_entities": int(values.size),
                "total": int(values.sum()),
                "max": hist.dmax,
                "frac_at_1": round(hist.fraction_at(1), 4),
            }
        )
    return rows
