"""Section 5 experiments: the Skype measurement study (Tables 1-2, Figs. 5-7).

The paper ran 14 Skype sessions between Williamsburg VA and 11 sites in
North America and China.  We mirror the setup: pick two geographically
distant regions of the generated topology, place 17 "sites" (hosts) the
way Fig. 5 does — sites 1-6 co-located at the main vantage, 7-12 spread
over region A, 13-17 in region B — and run Table 1's caller-callee plan
through the Skype-like simulator, then push every trace through the
analyzer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.errors import EvaluationError
from repro.measurement.tools import KingEstimator
from repro.netaddr import IPv4Address
from repro.scenario import Scenario
from repro.skype.analyzer import SessionAnalysis, TraceAnalyzer
from repro.skype.session import SkypeSessionResult, run_skype_session
from repro.skype.supernode import SkypeConfig, SupernodeOverlay
from repro.topology.population import Host
from repro.util.rng import derive_rng

#: Table 1 of the paper: caller-callee site numbers of the 14 sessions.
TABLE1_SESSION_PLAN: List[Tuple[int, int]] = [
    (3, 5), (1, 11), (1, 7), (1, 14), (1, 3), (1, 16), (1, 15),
    (1, 15), (1, 9), (1, 17), (1, 13), (1, 12), (6, 8), (2, 10),
]

#: Fig. 5 of the paper: sites 1-12 in region A, 13-17 in region B.
REGION_A_SITES = tuple(range(1, 13))
REGION_B_SITES = tuple(range(13, 18))


@dataclass
class SitePlan:
    """17 measurement sites mapped onto scenario hosts."""

    site_host: Dict[int, Host] = field(default_factory=dict)
    region_of: Dict[int, str] = field(default_factory=dict)

    def host(self, site: int) -> Host:
        try:
            return self.site_host[site]
        except KeyError:
            raise EvaluationError(f"unknown site {site}") from None


@dataclass
class Section5Result:
    """Everything needed to regenerate Tables 1-2 and Figs. 5-7."""

    plan: SitePlan
    sessions: List[Tuple[int, int]]
    results: List[SkypeSessionResult]
    analyses: List[SessionAnalysis]

    def stabilization_seconds(self) -> List[float]:
        """Fig. 7(a): per-session stabilization times."""
        return [a.stabilization_ms / 1000.0 for a in self.analyses]

    def probed_counts(self) -> List[int]:
        """Fig. 7(b): total probed relay nodes per session."""
        return [a.total_probed for a in self.analyses]

    def probed_after_stabilization(self) -> List[int]:
        """Fig. 7(c): nodes probed after the stabilization time."""
        return [
            len(
                set(a.forward.probed_after_stabilization)
                | set(a.backward.probed_after_stabilization)
            )
            for a in self.analyses
        ]

    def same_as_table(self) -> List[Tuple[int, int, List[IPv4Address]]]:
        """Table 2 rows: (session, AS, relay IPs probed in that AS)."""
        rows: List[Tuple[int, int, List[IPv4Address]]] = []
        for analysis in self.analyses:
            for asn, ips in sorted(analysis.same_as_probes.items()):
                rows.append((analysis.session_id, asn, ips))
        return rows


def build_site_plan(scenario: Scenario, seed: int = 0) -> SitePlan:
    """Place the 17 sites: two distant regions, sites 1-6 co-located."""
    rng = derive_rng(seed, "site-plan")
    matrices = scenario.matrices
    clusters = scenario.clusters.all_clusters()
    if len(clusters) < 12:
        raise EvaluationError("scenario too small for a 17-site plan")

    geo = scenario.topology.geography
    # Anchor on the pair of populated clusters with the worst finite
    # direct RTT — our Williamsburg and Dalian.  The paper's site pairs
    # were chosen because their direct paths were problematic, which is
    # what makes the Skype limits visible.
    rtt = scenario.matrices.rtt_ms
    sample = [int(i) for i in rng.choice(len(clusters), size=min(80, len(clusters)), replace=False)]
    best_pair, worst_rtt = None, -1.0
    for i in sample:
        for j in sample:
            if i >= j:
                continue
            value = rtt[i, j]
            if np.isfinite(value) and value > worst_rtt:
                best_pair, worst_rtt = (i, j), float(value)
    if best_pair is None:
        raise EvaluationError("no finite delegate RTT pair for the site plan")
    anchor_a, anchor_b = best_pair

    def nearest_clusters(anchor: int, count: int) -> List[int]:
        ref = clusters[anchor].asn
        ranked = sorted(
            range(len(clusters)), key=lambda k: geo.distance_km(clusters[k].asn, ref)
        )
        return ranked[:count]

    region_a = nearest_clusters(anchor_a, 8)
    region_b = nearest_clusters(anchor_b, 6)

    plan = SitePlan()
    # Sites 1-6: six hosts of the anchor-A cluster (or as many as exist).
    main_cluster = clusters[anchor_a]
    for site in range(1, 7):
        host = main_cluster.hosts[(site - 1) % len(main_cluster.hosts)]
        plan.site_host[site] = host
        plan.region_of[site] = "A"
    # Sites 7-12: spread over region A clusters.
    for offset, site in enumerate(range(7, 13)):
        cluster = clusters[region_a[1 + offset % (len(region_a) - 1)]]
        plan.site_host[site] = cluster.hosts[0]
        plan.region_of[site] = "A"
    # Sites 13-17: region B clusters.
    for offset, site in enumerate(range(13, 18)):
        cluster = clusters[region_b[offset % len(region_b)]]
        plan.site_host[site] = cluster.hosts[0]
        plan.region_of[site] = "B"
    return plan


def run_section5(
    scenario: Scenario,
    config: Optional[SkypeConfig] = None,
    duration_ms: float = 400_000.0,
    seed: int = 0,
    session_plan: Optional[List[Tuple[int, int]]] = None,
) -> Section5Result:
    """Run the 14-session Skype study end to end."""
    if config is None:
        config = SkypeConfig()
    plan = build_site_plan(scenario, seed=seed)
    sessions = session_plan if session_plan is not None else list(TABLE1_SESSION_PLAN)
    overlay = SupernodeOverlay(scenario.population, config)
    analyzer = TraceAnalyzer(
        scenario.prefix_table,
        king=KingEstimator(scenario.latency, seed=seed),
        population=scenario.population,
    )
    results: List[SkypeSessionResult] = []
    analyses: List[SessionAnalysis] = []
    with obs.span("section5.sessions", sessions=len(sessions)):
        for sid, (caller_site, callee_site) in enumerate(sessions, start=1):
            caller = plan.host(caller_site)
            callee = plan.host(callee_site)
            result = run_skype_session(
                scenario,
                caller.ip,
                callee.ip,
                overlay=overlay,
                config=config,
                duration_ms=duration_ms,
                session_id=sid,
            )
            results.append(result)
            analyses.append(analyzer.analyze(result.trace))
            obs.counter("section5.sessions").inc()
    return Section5Result(plan=plan, sessions=sessions, results=results, analyses=analyses)


def run_skype_batch(
    scenario: Scenario,
    session_count: int = 40,
    config: Optional[SkypeConfig] = None,
    duration_ms: float = 300_000.0,
    seed: int = 0,
    min_direct_rtt_ms: float = 250.0,
) -> Section5Result:
    """A randomized Skype study beyond Table 1's fixed plan.

    Samples ``session_count`` caller-callee host pairs whose direct RTT
    exceeds ``min_direct_rtt_ms`` (the problematic population where the
    limits live) and runs the full simulate-capture-analyze pipeline on
    each.  Used for aggregate limit statistics at scale.
    """
    if config is None:
        config = SkypeConfig()
    rng = derive_rng(seed, "skype-batch")
    matrices = scenario.matrices
    clusters = scenario.clusters.all_clusters()
    candidates = np.argwhere(
        np.isfinite(matrices.rtt_ms) & (matrices.rtt_ms > min_direct_rtt_ms)
    )
    if candidates.size == 0:
        raise EvaluationError("no session pairs above the RTT floor")
    order = rng.permutation(len(candidates))

    overlay = SupernodeOverlay(scenario.population, config)
    analyzer = TraceAnalyzer(
        scenario.prefix_table,
        king=KingEstimator(scenario.latency, seed=seed),
        population=scenario.population,
    )
    plan = SitePlan()
    sessions: List[Tuple[int, int]] = []
    results: List[SkypeSessionResult] = []
    analyses: List[SessionAnalysis] = []
    sid = 0
    for idx in order:
        if sid >= session_count:
            break
        a, b = (int(x) for x in candidates[int(idx)])
        ca, cb = clusters[a], clusters[b]
        if not ca.hosts or not cb.hosts:
            continue
        sid += 1
        caller, callee = ca.hosts[0], cb.hosts[0]
        plan.site_host[sid] = caller
        sessions.append((a, b))
        result = run_skype_session(
            scenario,
            caller.ip,
            callee.ip,
            overlay=overlay,
            config=config,
            duration_ms=duration_ms,
            session_id=sid,
        )
        results.append(result)
        analyses.append(analyzer.analyze(result.trace))
    return Section5Result(plan=plan, sessions=sessions, results=results, analyses=analyses)
