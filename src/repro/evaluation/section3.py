"""Section 3 experiments: the measurement foundation (Figs. 2-3).

- Fig. 2(a): distribution of direct IP routing RTTs over random sessions;
- Fig. 2(b): direct vs optimal one-hop relay RTT per session;
- Fig. 3(a): RTT reduction ratio of the optimal one-hop relay for
  sessions the relay improves;
- Fig. 3(b): direct vs optimal one-hop RTTs for *latent* sessions
  (direct > 300 ms) — the paper's headline: every such session has a
  one-hop relay below 300 ms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro import obs
from repro.baselines.opt import OPTMethod
from repro.evaluation.sessions import SessionWorkload, generate_workload
from repro.scenario import Scenario
from repro.voip.quality import RTT_THRESHOLD_MS


@dataclass
class Section3Result:
    """All series needed to regenerate Figs. 2 and 3."""

    direct_rtts: np.ndarray                    # Fig. 2(a)
    optimal_one_hop: np.ndarray                # Fig. 2(b), aligned with direct_rtts
    reduction_ratios: np.ndarray               # Fig. 3(a), improved sessions only
    latent_direct: np.ndarray                  # Fig. 3(b)
    latent_optimal: np.ndarray                 # Fig. 3(b), aligned

    @property
    def improved_fraction(self) -> float:
        """Share of sessions where the optimal one-hop beats direct."""
        finite = np.isfinite(self.direct_rtts) & np.isfinite(self.optimal_one_hop)
        if not np.any(finite):
            return 0.0
        return float(np.mean(self.optimal_one_hop[finite] < self.direct_rtts[finite]))

    @property
    def latent_fraction(self) -> float:
        """Share of sessions with direct RTT above the threshold."""
        if self.direct_rtts.size == 0:
            return 0.0
        above = ~np.isfinite(self.direct_rtts) | (self.direct_rtts > RTT_THRESHOLD_MS)
        return float(np.mean(above))

    @property
    def rescued_fraction(self) -> float:
        """Share of latent sessions whose optimal one-hop is < 300 ms."""
        if self.latent_direct.size == 0:
            return 1.0
        ok = np.isfinite(self.latent_optimal) & (self.latent_optimal < RTT_THRESHOLD_MS)
        return float(np.mean(ok))


def run_section3(
    scenario: Scenario,
    session_count: int = 2000,
    seed: int = 0,
    workload: Optional[SessionWorkload] = None,
) -> Section3Result:
    """Compute the Section 3 series over a random-session workload."""
    if workload is None:
        workload = generate_workload(scenario, session_count, seed=seed)
    world = scenario.matrix_view()
    opt = OPTMethod(include_two_hop=False)

    direct = workload.direct_rtts()
    with obs.span("section3.optimal_one_hop", sessions=len(workload)):
        results = opt.evaluate_sessions(world, workload.sessions)
    optimal = np.array([np.inf if r.best_rtt_ms is None else r.best_rtt_ms for r in results])
    obs.counter("section3.sessions").inc(len(workload))

    finite = np.isfinite(direct) & np.isfinite(optimal)
    improved = finite & (optimal < direct)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratios = (direct[improved] - optimal[improved]) / direct[improved]

    latent_mask = ~np.isfinite(direct) | (direct > RTT_THRESHOLD_MS)
    return Section3Result(
        direct_rtts=direct,
        optimal_one_hop=optimal,
        reduction_ratios=ratios,
        latent_direct=direct[latent_mask],
        latent_optimal=optimal[latent_mask],
    )
