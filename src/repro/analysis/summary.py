"""Tabular summaries of graphs and traffic windows.

These helpers render the quantities the paper reports prose-style (number of
valid packets, unique sources/destinations/links, leaf fraction, supernode
size, d_max, degree-1 fraction) as plain dictionaries and fixed-width text
tables so that examples and benchmark harnesses can print paper-style rows
without any plotting dependency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro.analysis.histogram import DegreeHistogram, degree_histogram
from repro.analysis.topology import decompose_topology

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["NetworkSummary", "summarize_graph", "summarize_window", "format_table"]


@dataclass(frozen=True)
class NetworkSummary:
    """Headline statistics of one observed network or window."""

    n_nodes: int
    n_edges: int
    dmax: int
    degree_one_fraction: float
    leaf_fraction: float
    unattached_fraction: float
    n_supernodes: int
    mean_degree: float

    def as_row(self) -> dict:
        """Dictionary form for tabular printing."""
        return {
            "nodes": self.n_nodes,
            "edges": self.n_edges,
            "dmax": self.dmax,
            "P(d=1)": round(self.degree_one_fraction, 4),
            "leaf_frac": round(self.leaf_fraction, 4),
            "unattached_frac": round(self.unattached_fraction, 4),
            "supernodes": self.n_supernodes,
            "mean_degree": round(self.mean_degree, 3),
        }


def summarize_graph(graph: nx.Graph) -> NetworkSummary:
    """Summarise an observed network graph (Figure-2 style statistics)."""
    n_nodes = graph.number_of_nodes()
    n_edges = graph.number_of_edges()
    if n_nodes == 0:
        return NetworkSummary(0, 0, 0, 0.0, 0.0, 0.0, 0, 0.0)
    degrees = np.fromiter((d for _, d in graph.degree()), dtype=np.int64, count=n_nodes)
    hist = degree_histogram(degrees[degrees > 0]) if np.any(degrees > 0) else DegreeHistogram.from_dense([])
    decomp = decompose_topology(graph)
    fractions = decomp.fractions()
    return NetworkSummary(
        n_nodes=n_nodes,
        n_edges=n_edges,
        dmax=int(degrees.max()),
        degree_one_fraction=hist.fraction_at(1),
        leaf_fraction=decomp.leaf_fraction(),
        unattached_fraction=fractions["unattached"],
        n_supernodes=len(decomp.supernodes),
        mean_degree=float(degrees.mean()),
    )


def summarize_window(histograms: Mapping[str, DegreeHistogram]) -> dict:
    """Summarise the per-quantity histograms of one traffic window.

    *histograms* maps quantity names (``"source_packets"``, ``"source_fanout"``,
    ``"link_packets"``, ``"destination_fanin"``, ``"destination_packets"``) to
    their histograms; the result maps each to its headline statistics.
    """
    out = {}
    for name, hist in histograms.items():
        out[name] = {
            "total": hist.total,
            "distinct": int(hist.degrees.size),
            "dmax": hist.dmax,
            "P(d=1)": round(hist.fraction_at(1), 4),
        }
    return out


def format_table(rows: Sequence[Mapping[str, object]], *, float_format: str = "{:.4g}") -> str:
    """Render a list of dict rows as a fixed-width text table.

    All rows must share the same keys; column order follows the first row.
    """
    rows = list(rows)
    if not rows:
        return "(empty table)"
    columns = list(rows[0].keys())

    def fmt(value: object) -> str:
        if isinstance(value, float):
            return float_format.format(value)
        return str(value)

    rendered = [[fmt(row[c]) for c in columns] for row in rows]
    widths = [max(len(c), *(len(r[i]) for r in rendered)) for i, c in enumerate(columns)]
    header = "  ".join(c.ljust(widths[i]) for i, c in enumerate(columns))
    separator = "  ".join("-" * widths[i] for i in range(len(columns)))
    body = [
        "  ".join(r[i].ljust(widths[i]) for i in range(len(columns)))
        for r in rendered
    ]
    return "\n".join([header, separator, *body])
