"""Scenario subsystem: time-varying traffic workloads for the streaming engine.

The paper's windowed analysis assumes every trace is drawn from one
stationary traffic graph.  This subpackage generates workloads that break
that assumption on purpose — multi-phase scenarios where the underlying
graph family, its parameters, or the per-link rate law change as the stream
progresses, optionally cross-fading between regimes — and drives them
through the existing single-pass engine:

* :mod:`repro.scenarios.scenario` — :class:`Phase`, :class:`Scenario`, and
  the ``@register_scenario`` registry (all validation happens at
  registration time),
* :mod:`repro.scenarios.families` — named graph families a phase can use,
* :mod:`repro.scenarios.source` — :class:`ScenarioTraceSource`, the lazy
  chunk stream (deterministic and chunk-size invariant for a fixed seed),
* :mod:`repro.scenarios.builtin` — the built-in catalogue
  (``repro scenarios list``),
* :mod:`repro.scenarios.run` — :func:`analyze_scenario`, one bounded-memory
  pass producing a :class:`~repro.streaming.pipeline.WindowedAnalysis` plus
  a :class:`~repro.analysis.phases.PhaseSegmentedAnalysis` with the
  adjacent-phase drift statistic.

Quickstart::

    from repro.scenarios import analyze_scenario

    run = analyze_scenario("alpha-drift", n_valid=5_000, seed=0, keep_windows=False)
    run.engine_stats["max_buffered_packets"]   # bounded by the block size
    run.phases.drift("source_fanout")          # how far each phase moved
"""

from repro._util.lazy import lazy_exports
from repro.scenarios.builtin import BUILTIN_SCENARIO_NAMES

__all__ = [
    "BUILTIN_SCENARIO_NAMES",
    "GRAPH_FAMILY_NAMES",
    "DEFAULT_BLOCK_PACKETS",
    "Phase",
    "Scenario",
    "ScenarioRun",
    "ScenarioTraceSource",
    "analyze_scenario",
    "build_family_edges",
    "family_defaults",
    "get_scenario",
    "iter_scenarios",
    "register_scenario",
    "scenario_names",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".families": ("GRAPH_FAMILY_NAMES", "build_family_edges", "family_defaults"),
        ".run": ("ScenarioRun", "analyze_scenario"),
        ".scenario": (
            "Phase", "Scenario", "get_scenario", "iter_scenarios", "register_scenario",
            "scenario_names",
        ),
        ".source": ("DEFAULT_BLOCK_PACKETS", "ScenarioTraceSource"),
    },
)
