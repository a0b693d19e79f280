"""Ablation sweeps over ASAP's design choices (DESIGN.md Section 5).

Each sweep runs Section 7's latent-session evaluation for ASAP only,
varying one knob:

- ``k`` (close-cluster BFS hop limit) — recall vs maintenance cost;
- ``sizeT`` (two-hop trigger) — how often two-hop search fires;
- ``latT`` (quality threshold) — sensitivity of quality-path counts;
- the valley-free constraint itself — what AS-awareness actually buys.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.core.config import ASAPConfig
from repro.core.protocol import ASAPSystem
from repro.evaluation.metrics import MethodRecord, record_from_asap
from repro.evaluation.sessions import Session, generate_workload
from repro.scenario import Scenario


@dataclass
class AblationPoint:
    """One configuration's aggregate outcome."""

    label: str
    config: ASAPConfig
    quality_paths_median: float
    best_rtt_median_ms: float
    rescued_fraction: float       # latent sessions with a <300 ms relay
    messages_median: float
    maintenance_messages: int     # close-set probe traffic (whole system)
    two_hop_sessions: int         # sessions that needed two-hop search

    def row(self) -> str:
        return (
            f"{self.label:>18}  qp_med={self.quality_paths_median:>8.0f}  "
            f"rtt_med={self.best_rtt_median_ms:>6.1f}  rescued={self.rescued_fraction:>5.2f}  "
            f"msg_med={self.messages_median:>6.0f}  maint={self.maintenance_messages:>8d}  "
            f"two_hop={self.two_hop_sessions:>4d}"
        )


def _evaluate(
    scenario: Scenario,
    latent: List[Session],
    config: ASAPConfig,
    label: str,
) -> AblationPoint:
    system = ASAPSystem(scenario, config)
    records: List[MethodRecord] = []
    two_hop_sessions = 0
    for session in latent:
        call = system.call(session.caller, session.callee)
        records.append(record_from_asap(call, session.session_id))
        if call.selection is not None and call.selection.two_hop_queries > 0:
            two_hop_sessions += 1
    qp = np.array([r.quality_paths for r in records], dtype=float)
    rtts = np.array(
        [r.best_rtt_ms if r.best_rtt_ms is not None else np.inf for r in records]
    )
    msgs = np.array([r.messages for r in records], dtype=float)
    finite = rtts[np.isfinite(rtts)]
    return AblationPoint(
        label=label,
        config=config,
        quality_paths_median=float(np.median(qp)) if qp.size else 0.0,
        best_rtt_median_ms=float(np.median(finite)) if finite.size else float("inf"),
        rescued_fraction=float(np.mean(rtts < config.lat_threshold_ms)) if rtts.size else 0.0,
        messages_median=float(np.median(msgs)) if msgs.size else 0.0,
        maintenance_messages=system.maintenance_messages(),
        two_hop_sessions=two_hop_sessions,
    )


def _latent_sessions(
    scenario: Scenario,
    session_count: int,
    latent_target: int,
    seed: int,
    max_latent: Optional[int],
) -> List[Session]:
    workload = generate_workload(
        scenario, session_count, seed=seed, latent_target=latent_target
    )
    latent = workload.latent()
    return latent[:max_latent] if max_latent is not None else latent


def sweep_k(
    scenario: Scenario,
    k_values: Sequence[int] = (2, 3, 4, 5, 6),
    session_count: int = 1500,
    latent_target: int = 40,
    seed: int = 0,
    max_latent: Optional[int] = 40,
) -> List[AblationPoint]:
    """BFS hop-limit sweep (paper fixes k = 4)."""
    latent = _latent_sessions(scenario, session_count, latent_target, seed, max_latent)
    return [
        _evaluate(scenario, latent, ASAPConfig(k_hops=k), f"k={k}")
        for k in k_values
    ]


def sweep_size_threshold(
    scenario: Scenario,
    size_values: Sequence[int] = (0, 50, 300, 1000, 10**9),
    session_count: int = 1500,
    latent_target: int = 40,
    seed: int = 0,
    max_latent: Optional[int] = 40,
) -> List[AblationPoint]:
    """Two-hop trigger sweep (paper uses sizeT = 300)."""
    latent = _latent_sessions(scenario, session_count, latent_target, seed, max_latent)
    return [
        _evaluate(
            scenario, latent, ASAPConfig(size_threshold=size), f"sizeT={size}"
        )
        for size in size_values
    ]


def sweep_lat_threshold(
    scenario: Scenario,
    thresholds_ms: Sequence[float] = (200.0, 250.0, 300.0, 400.0),
    session_count: int = 1500,
    latent_target: int = 40,
    seed: int = 0,
    max_latent: Optional[int] = 40,
) -> List[AblationPoint]:
    """Quality-threshold sweep (paper sets latT close to 300 ms).

    The latent session set is held fixed (at 300 ms) so points are
    comparable; only the protocol's own threshold moves.
    """
    latent = _latent_sessions(scenario, session_count, latent_target, seed, max_latent)
    return [
        _evaluate(
            scenario,
            latent,
            ASAPConfig(lat_threshold_ms=threshold),
            f"latT={threshold:.0f}",
        )
        for threshold in thresholds_ms
    ]


def sweep_valley_free(
    scenario: Scenario,
    session_count: int = 1500,
    latent_target: int = 40,
    seed: int = 0,
    max_latent: Optional[int] = 40,
) -> List[AblationPoint]:
    """Valley-free constraint on/off — what the AS-awareness is worth.

    With the constraint off, the BFS floods every direction and the
    close sets balloon (more maintenance probes for the same quality) —
    the same failure mode as AS-oblivious probing, quantified.
    """
    latent = _latent_sessions(scenario, session_count, latent_target, seed, max_latent)
    return [
        _evaluate(scenario, latent, ASAPConfig(valley_free=True), "valley-free"),
        _evaluate(scenario, latent, ASAPConfig(valley_free=False), "unconstrained"),
    ]
