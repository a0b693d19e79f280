"""Evaluation harness: one runner per table/figure of the paper.

- :mod:`repro.evaluation.sessions` — VoIP session workload generation
  (random host pairs; the latent subset with direct RTT > 300 ms).
- :mod:`repro.evaluation.metrics` — per-session per-method records
  (quality paths, shortest RTT, highest MOS, messages).
- :mod:`repro.evaluation.section3` — Figs. 2-3 (measurement foundation).
- :mod:`repro.evaluation.section5` — Tables 1-2, Figs. 5-7 (Skype study).
- :mod:`repro.evaluation.policies` — every method behind the uniform
  :class:`~repro.baselines.base.RelayPolicy` surface (including the
  ASAP adapter) plus the default Section-7 roster.
- :mod:`repro.evaluation.engine` — the unified
  :class:`~repro.evaluation.engine.Experiment` runner (dense or
  streamed substrate, stage and per-policy timings).
- :mod:`repro.evaluation.section7` — Figs. 11-18 (ASAP vs baselines,
  scalability, overhead).
- :mod:`repro.evaluation.ablations` — parameter sweeps for the design
  choices (k, sizeT, latT, valley-free constraint).
- :mod:`repro.evaluation.maintenance` — close-set staleness under
  re-weathered conditions and the refresh remedy (extension study).
- :mod:`repro.evaluation.assignment` — load-aware relay assignment over
  the selection's candidates (relay-load extension study).
- :mod:`repro.evaluation.report` — fixed-width report rendering used by
  the benchmark harness.
"""

from repro.evaluation.sessions import Session, SessionWorkload, generate_workload
from repro.evaluation.engine import (
    Experiment,
    ExperimentConfig,
    ExperimentReport,
    run_experiment,
)
from repro.evaluation.metrics import MethodRecord, MethodSummary, summarize_method
from repro.evaluation.policies import METHOD_NAMES, ASAPPolicy, default_policies
from repro.evaluation.section3 import Section3Result, run_section3
from repro.evaluation.section5 import Section5Result, run_section5, run_skype_batch
from repro.evaluation.section7 import Section7Result, run_section7
from repro.evaluation.scalability import ScalabilityResult, run_scalability
from repro.evaluation.robustness import (
    HeadlineMetrics,
    family_study,
    headline_metrics,
    seed_study,
)
from repro.evaluation.chaos import ChaosResult, run_chaos, sweep_chaos
from repro.evaluation.conference import ConferenceLeg, ConferenceResult, run_conference
from repro.evaluation.figures import export_all

__all__ = [
    "ASAPPolicy",
    "ChaosResult",
    "ConferenceLeg",
    "ConferenceResult",
    "Experiment",
    "ExperimentConfig",
    "ExperimentReport",
    "HeadlineMetrics",
    "METHOD_NAMES",
    "MethodRecord",
    "MethodSummary",
    "default_policies",
    "ScalabilityResult",
    "Section3Result",
    "Section5Result",
    "Section7Result",
    "Session",
    "SessionWorkload",
    "export_all",
    "family_study",
    "generate_workload",
    "headline_metrics",
    "run_experiment",
    "run_scalability",
    "run_chaos",
    "run_conference",
    "run_section3",
    "run_section5",
    "run_section7",
    "run_skype_batch",
    "seed_study",
    "sweep_chaos",
    "summarize_method",
]
