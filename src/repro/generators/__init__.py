"""Generative network models: the substrate the PALU model is built from.

The paper's underlying network is assembled from three generative pieces —
a preferential-attachment core, degree-1 leaves, and Poisson star components
— and observed through Erdős–Rényi edge sampling.  This subpackage
implements each piece from scratch (plus a configuration-model alternative
for the core and a webcrawl/BFS sampler used as the contrast baseline), and
:mod:`repro.generators.palu_graph` composes them into the full PALU
underlying network.
"""

from repro._util.lazy import lazy_exports

__all__ = [
    "generate_configuration_model",
    "sample_power_law_degrees",
    "sample_zipf_mandelbrot_degrees",
    "generate_erdos_renyi",
    "PALUGraph",
    "generate_palu_graph",
    "generate_poisson_stars",
    "generate_preferential_attachment",
    "generate_shifted_preferential_attachment",
    "node_sample",
    "sample_edges",
    "sample_edges_array",
    "webcrawl_sample",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".configuration_model": ("generate_configuration_model",),
        ".degree_sequence": ("sample_power_law_degrees", "sample_zipf_mandelbrot_degrees"),
        ".erdos_renyi": ("generate_erdos_renyi",),
        ".palu_graph": ("PALUGraph", "generate_palu_graph"),
        ".poisson_stars": ("generate_poisson_stars",),
        ".preferential_attachment": (
            "generate_preferential_attachment", "generate_shifted_preferential_attachment",
        ),
        ".sampling": ("node_sample", "sample_edges", "sample_edges_array", "webcrawl_sample"),
    },
)
