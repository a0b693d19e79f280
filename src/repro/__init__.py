"""repro — a reproduction of "ASAP: an AS-Aware Peer-Relay Protocol for
High Quality VoIP" (Ren, Guo, Zhang; ICDCS 2006).

Quick tour of the public API:

- :func:`repro.scenario.build_scenario` / :class:`repro.scenario.ScenarioConfig`
  — build a simulated Internet (topology, BGP feed, peer population,
  latency ground truth).
- :mod:`repro.core` — the ASAP protocol: bootstraps, cluster surrogates,
  close-cluster-set construction and close-relay selection.
- :mod:`repro.baselines` — DEDI / RAND / MIX / OPT relay selection.
- :mod:`repro.skype` — the Skype-like probing simulator and trace
  analyzer behind the paper's Section 5 measurement study.
- :mod:`repro.evaluation` — workloads, metrics, and one experiment runner
  per table/figure of the paper.
"""

from repro.scenario import (
    SCALES,
    Scenario,
    ScenarioConfig,
    build_scenario,
    small_scenario,
)

__version__ = "1.9.0"

__all__ = [
    "Experiment",
    "ExperimentConfig",
    "SCALES",
    "Scenario",
    "ScenarioConfig",
    "build_scenario",
    "run_experiment",
    "small_scenario",
    "__version__",
]

#: Experiment-engine names resolved lazily so ``import repro`` stays
#: light (the evaluation stack pulls in every protocol layer).
_LAZY_EVALUATION = ("Experiment", "ExperimentConfig", "run_experiment")


def __getattr__(name: str):
    if name in _LAZY_EVALUATION:
        from repro import evaluation

        return getattr(evaluation, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
