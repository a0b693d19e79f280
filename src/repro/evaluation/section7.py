"""Section 7 experiments: ASAP vs DEDI/RAND/MIX/OPT (Figs. 11-18).

One run produces, for every latent session and every method, a
:class:`~repro.evaluation.metrics.MethodRecord`; the figure-specific
series (quality-path CDF, shortest-RTT CCDF, MOS CDF, overhead CDF) are
all views over those records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro import obs
from repro.baselines import RelayPolicy
from repro.core import ASAPConfig, derive_k_hops
from repro.evaluation.metrics import (
    MethodRecord,
    MethodSummary,
    record_from_baseline,
    summarize_method,
)
from repro.evaluation.policies import METHOD_NAMES, default_policies
from repro.evaluation.sessions import Session, SessionWorkload, generate_workload
from repro.scenario import Scenario


@dataclass
class Section7Result:
    """Per-method records over the latent sessions."""

    latent_sessions: List[Session]
    records: Dict[str, List[MethodRecord]] = field(default_factory=dict)

    def summary(self, method: str) -> MethodSummary:
        return summarize_method(self.records[method])

    def summaries(self) -> List[MethodSummary]:
        return [self.summary(name) for name in METHOD_NAMES if name in self.records]

    def series(self, method: str, metric: str) -> np.ndarray:
        """Raw per-session series for a metric ('quality_paths',
        'best_rtt_ms', 'highest_mos', 'messages')."""
        rows = self.records[method]
        if metric == "quality_paths":
            return np.array([r.quality_paths for r in rows], dtype=float)
        if metric == "one_hop_quality_paths":
            return np.array([r.one_hop_count for r in rows], dtype=float)
        if metric == "best_rtt_ms":
            return np.array(
                [r.best_rtt_ms if r.best_rtt_ms is not None else np.inf for r in rows]
            )
        if metric == "highest_mos":
            return np.array(
                [r.highest_mos if r.highest_mos is not None else 1.0 for r in rows]
            )
        if metric == "messages":
            return np.array([r.messages for r in rows], dtype=float)
        raise ValueError(f"unknown metric {metric!r}")


def run_section7(
    scenario: Scenario,
    session_count: int = 3000,
    latent_target: int = 100,
    seed: int = 0,
    asap_config: Optional[ASAPConfig] = None,
    methods: Sequence[str] = METHOD_NAMES,
    workload: Optional[SessionWorkload] = None,
    max_latent_sessions: Optional[int] = None,
    policies: Optional[Sequence[RelayPolicy]] = None,
) -> Section7Result:
    """Evaluate every policy on the latent sessions of a workload.

    When ``asap_config`` is None, the BFS hop limit k is derived from
    the scenario's own measurements with the paper's 90%-of-sub-300ms-
    paths rule (Section 6.2) instead of hard-coding the paper's k = 4.

    ``policies`` overrides the roster entirely: any sequence of
    :class:`~repro.baselines.base.RelayPolicy` objects is evaluated in
    order (``methods`` is then ignored).  By default the roster is
    :func:`~repro.evaluation.policies.default_policies` over ``methods``.
    """
    if asap_config is None:
        asap_config = ASAPConfig(k_hops=derive_k_hops(scenario.matrix_view()))
    if workload is None:
        workload = generate_workload(
            scenario,
            session_count,
            seed=seed,
            latent_target=latent_target,
            threshold_ms=asap_config.lat_threshold_ms,
        )
    latent = workload.latent(asap_config.lat_threshold_ms)
    if max_latent_sessions is not None:
        latent = latent[:max_latent_sessions]

    if policies is None:
        policies = default_policies(
            scenario,
            methods=methods,
            asap_config=asap_config,
        )

    result = Section7Result(latent_sessions=latent)

    # Every policy takes the batch path: one evaluate_sessions call over
    # every latent pair (baselines vectorize it; the ASAP adapter runs
    # the protocol per session, identically to calling from member IPs).
    # The world handed to the policies is the scenario's matrix view —
    # dense arrays or the streamed VirtualMatrices, same read surface.
    world = scenario.matrix_view()
    pairs = [(s.caller_cluster, s.callee_cluster) for s in latent]
    session_ids = [s.session_id for s in latent]
    for policy in policies:
        with obs.span("section7.policy", policy=policy.name, sessions=len(pairs)):
            outcomes = policy.evaluate_sessions(world, pairs, session_ids=session_ids)
        result.records[policy.name] = [
            record_from_baseline(sid, outcome)
            for sid, outcome in zip(session_ids, outcomes)
        ]
        obs.counter(f"section7.sessions.{policy.name}").inc(len(outcomes))
    return result
