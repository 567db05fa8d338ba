"""Core models of the paper: Zipf–Mandelbrot fitting and the PALU model.

This subpackage contains the paper's primary contribution:

* :mod:`repro.core.zeta` — zeta-function utilities,
* :mod:`repro.core.distributions` — discrete degree-distribution objects,
* :mod:`repro.core.zipf_mandelbrot` / :mod:`repro.core.zm_fit` — the
  modified Zipf–Mandelbrot model and its fitting procedure (Section II-B),
* :mod:`repro.core.powerlaw_fit` / :mod:`repro.core.estimators` — the
  single-exponent baseline and log-log regression estimators,
* :mod:`repro.core.palu_model` / :mod:`repro.core.palu_fit` — the PALU model
  expectations (Sections IV–V) and the reduced-parameter fitting recipe,
* :mod:`repro.core.palu_zm_connection` — Equation (5) and the Figure-4 curve
  families (Section VI).
"""

from repro._util.lazy import lazy_exports

__all__ = [
    # distributions
    "DiscreteDegreeDistribution",
    "DiscretePowerLaw",
    "GeometricTailDistribution",
    "PALUDegreeDistribution",
    "PoissonDegreeDistribution",
    "ZipfMandelbrotDistribution",
    # estimators
    "SlopeEstimate",
    "estimate_alpha_loglog",
    "estimate_alpha_pooled",
    "estimate_tail_intercept",
    # goodness of fit / model selection
    "LikelihoodRatioResult",
    "PlausibilityResult",
    "bootstrap_parameter_ci",
    "likelihood_ratio_test",
    "power_law_plausibility",
    # palu fitting
    "PALUFitResult",
    "fit_palu",
    "solve_lambda_from_ratio",
    # palu model
    "PALUParameters",
    "ReducedPALUParameters",
    "degree_distribution",
    "expected_class_fractions",
    "expected_degree_fractions",
    "expected_degree_one_fraction",
    "reduced_parameters",
    "visible_fraction",
    # palu <-> ZM connection
    "FIG4_PANELS",
    "PALUZMCurve",
    "curve_family",
    "delta_from_model",
    "palu_zm_differential_cumulative",
    "palu_zm_probability",
    "palu_zm_unnormalized",
    "u_over_c_from_delta",
    "zm_convergence_error",
    # power-law baseline
    "PowerLawFitResult",
    "fit_discrete_mle",
    "fit_power_law",
    "select_dmin",
    # zeta utilities
    "generalized_harmonic",
    "hurwitz_zeta",
    "riemann_zeta",
    "truncated_hurwitz",
    "truncated_zeta",
    "zeta_prime",
    # zipf-mandelbrot
    "ZipfMandelbrotModel",
    "zm_cumulative",
    "zm_differential_cumulative",
    "zm_probability",
    "zm_unnormalized",
    "zm_unnormalized_gradient_delta",
    # ZM fitting
    "ZMFitResult",
    "fit_zipf_mandelbrot",
    "fit_zipf_mandelbrot_histogram",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".distributions": (
            "DiscreteDegreeDistribution", "DiscretePowerLaw", "GeometricTailDistribution",
            "PALUDegreeDistribution", "PoissonDegreeDistribution",
            "ZipfMandelbrotDistribution",
        ),
        ".estimators": (
            "SlopeEstimate", "estimate_alpha_loglog", "estimate_alpha_pooled",
            "estimate_tail_intercept",
        ),
        ".goodness_of_fit": (
            "LikelihoodRatioResult", "PlausibilityResult", "bootstrap_parameter_ci",
            "likelihood_ratio_test", "power_law_plausibility",
        ),
        ".palu_fit": ("PALUFitResult", "fit_palu", "solve_lambda_from_ratio"),
        ".palu_model": (
            "PALUParameters", "ReducedPALUParameters", "degree_distribution",
            "expected_class_fractions", "expected_degree_fractions",
            "expected_degree_one_fraction", "reduced_parameters", "visible_fraction",
        ),
        ".palu_zm_connection": (
            "FIG4_PANELS", "PALUZMCurve", "curve_family", "delta_from_model",
            "palu_zm_differential_cumulative", "palu_zm_probability", "palu_zm_unnormalized",
            "u_over_c_from_delta", "zm_convergence_error",
        ),
        ".powerlaw_fit": (
            "PowerLawFitResult", "fit_discrete_mle", "fit_power_law", "select_dmin",
        ),
        ".zeta": (
            "generalized_harmonic", "hurwitz_zeta", "riemann_zeta", "truncated_hurwitz",
            "truncated_zeta", "zeta_prime",
        ),
        ".zipf_mandelbrot": (
            "ZipfMandelbrotModel", "zm_cumulative", "zm_differential_cumulative",
            "zm_probability", "zm_unnormalized", "zm_unnormalized_gradient_delta",
        ),
        ".zm_fit": ("ZMFitResult", "fit_zipf_mandelbrot", "fit_zipf_mandelbrot_histogram"),
    },
)
