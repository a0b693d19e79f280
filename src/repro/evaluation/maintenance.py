"""Close-cluster-set maintenance under changing network conditions.

Close cluster sets are measurements, and measurements go stale: BGP
tables "do not change frequently" (§6.3) but congestion does.  This
module quantifies the staleness problem and the refresh remedy:

- :func:`staleness` — with the network re-weathered, what fraction of a
  close set's entries no longer meet the thresholds, and what fraction
  of now-qualifying clusters are missing?
- :class:`MaintenanceStudy` — run the same latent sessions before and
  after a weather change, with and without surrogate refresh, measuring
  how much quality stale sets cost and what a refresh round costs in
  probe traffic.

This is an operational extension beyond the paper's evaluation (its
simulation is a single snapshot), but directly implied by the protocol
description: surrogates "periodically" rebuild their sets.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import ASAPConfig, derive_k_hops
from repro.core.protocol import ASAPSystem
from repro.core.relay_selection import select_close_relay
from repro.errors import EvaluationError
from repro.evaluation.sessions import Session
from repro.measurement.conditions import generate_conditions
from repro.measurement.latency import LatencyModel
from repro.scenario import Scenario
from repro.worldarrays.closesets import LOSS_THRESHOLD


@dataclass(frozen=True)
class StalenessReport:
    """How stale one close set is against fresh measurements."""

    cluster: int
    entries: int
    violating: int        # members whose fresh RTT/loss now fail thresholds
    missing: int          # now-qualifying clusters absent from the set

    @property
    def violation_rate(self) -> float:
        return self.violating / self.entries if self.entries else 0.0


def reweather(scenario: Scenario, seed: int) -> Scenario:
    """The same world under freshly drawn network conditions.

    Topology, BGP data, and the peer population stay fixed; congestion,
    failures and loss are re-drawn (a different day on the same
    Internet).  Matrices recompute lazily.
    """
    conditions = generate_conditions(
        scenario.topology, replace(scenario.config.conditions, seed=seed)
    )
    latency = LatencyModel(
        scenario.topology, conditions, scenario.population, seed=scenario.config.seed
    )
    return Scenario(
        config=scenario.config,
        topology=scenario.topology,
        allocation=scenario.allocation,
        routing_table=scenario.routing_table,
        prefix_table=scenario.prefix_table,
        inferred_graph=scenario.inferred_graph,
        conditions=conditions,
        population=scenario.population,
        clusters=scenario.clusters,
        latency=latency,
    )


def staleness(
    stale_system: ASAPSystem,
    fresh_scenario: Scenario,
    cluster_index: int,
) -> StalenessReport:
    """Score one cluster's (stale) close set against fresh measurements."""
    config = stale_system.config
    stale_set = stale_system.close_set(cluster_index)
    fresh = fresh_scenario.matrices
    if fresh.count != len(fresh.prefixes):
        raise EvaluationError("inconsistent fresh matrices")

    members = stale_set.ids
    rtt = fresh.rtt_ms[cluster_index, members]
    loss = fresh.loss[cluster_index, members]
    passing = np.isfinite(rtt) & (rtt < config.lat_threshold_ms) & (loss < LOSS_THRESHOLD)
    violating = int(len(members) - passing.sum())

    # Missing: clusters that would qualify now (fresh RTT under the
    # threshold) but are not in the stale set.  Measured against the
    # simple threshold criterion, not the BFS reachability, so this is
    # an upper bound on what a rebuild could add.
    row = fresh.rtt_ms[cluster_index]
    qualifies = np.isfinite(row) & (row < config.lat_threshold_ms)
    qualifies[cluster_index] = False
    qualifies[members] = False
    missing = int(qualifies.sum())
    return StalenessReport(
        cluster=cluster_index,
        entries=len(stale_set),
        violating=violating,
        missing=missing,
    )


@dataclass
class MaintenanceOutcome:
    """Quality/cost of one maintenance policy on the re-weathered world."""

    policy: str
    rescued_fraction: float
    median_best_rtt_ms: float
    maintenance_messages: int


def run_maintenance_study(
    scenario: Scenario,
    sessions: Sequence[Session],
    weather_seed: int = 1,
    config: Optional[ASAPConfig] = None,
) -> Tuple[List[MaintenanceOutcome], List[StalenessReport]]:
    """Compare stale vs refreshed close sets after a weather change.

    Builds the system on the original scenario (close sets measured
    under the old weather), re-weathers the world, then evaluates the
    given latent sessions three ways: with stale sets, with refreshed
    sets, and with a fresh system built natively on the new weather
    (the upper bound).
    """
    if config is None:
        config = ASAPConfig(k_hops=derive_k_hops(scenario.matrices))
    fresh_scenario = reweather(scenario, weather_seed)

    # Stale: close sets built under old weather, sessions scored under
    # the new one.  The stale system's selection uses old RTT beliefs;
    # realized path quality comes from the fresh matrices.
    stale_system = ASAPSystem(scenario, config)
    fresh_matrices = fresh_scenario.matrices

    def evaluate(system: ASAPSystem, realized) -> Tuple[float, float]:
        """Score sessions under the *fresh* weather.

        The ping is live (direct RTT always reflects current weather);
        only the close sets may be stale.  A session counts as rescued
        when its realized best path — direct if good, else the
        believed-best relay realized under the fresh weather — meets
        the threshold.
        """
        rescued = 0
        bests: List[float] = []
        for session in sessions:
            ca, cb = session.caller_cluster, session.callee_cluster
            fresh_direct = float(realized.rtt_ms[ca, cb])
            if np.isfinite(fresh_direct) and fresh_direct < config.lat_threshold_ms:
                rescued += 1
                bests.append(fresh_direct)
                continue
            s1 = system.surrogate(ca, requester=session.caller).serve_close_set()
            s2 = system.surrogate(cb, requester=session.callee).serve_close_set()
            selection = select_close_relay(
                s1,
                s2,
                cluster_size=np.ones(len(system.online_sizes), dtype=np.int64),
                close_set_of=lambda idx: system.surrogate(idx).serve_close_set(),
                config=config,
            )
            ranked = selection.one_hop_ranked()
            if not ranked:
                continue
            _, believed = ranked[0]
            realized_rtt = realized.one_hop_rtt(ca, believed, cb)
            if np.isfinite(realized_rtt):
                bests.append(realized_rtt)
                if realized_rtt < config.lat_threshold_ms:
                    rescued += 1
        fraction = rescued / len(sessions) if sessions else 0.0
        median = float(np.median(bests)) if bests else float("inf")
        return fraction, median

    outcomes: List[MaintenanceOutcome] = []
    stale_quality = evaluate(stale_system, fresh_matrices)
    outcomes.append(
        MaintenanceOutcome(
            policy="stale",
            rescued_fraction=stale_quality[0],
            median_best_rtt_ms=stale_quality[1],
            maintenance_messages=stale_system.maintenance_messages(),
        )
    )

    # Refresh: rebuild the sets against the fresh world's measurements.
    refreshed_system = ASAPSystem(fresh_scenario, config)
    refreshed_quality = evaluate(refreshed_system, fresh_matrices)
    outcomes.append(
        MaintenanceOutcome(
            policy="refreshed",
            rescued_fraction=refreshed_quality[0],
            median_best_rtt_ms=refreshed_quality[1],
            maintenance_messages=refreshed_system.maintenance_messages(),
        )
    )

    # Staleness reports for the session endpoint clusters.
    reports = [
        staleness(stale_system, fresh_scenario, session.caller_cluster)
        for session in list(sessions)[:20]
    ]
    return outcomes, reports
