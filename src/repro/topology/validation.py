"""Substrate realism validation: is the generated Internet Internet-like?

The substitution argument in DESIGN.md §2 rests on the generated
topology preserving specific statistical properties of the real
Internet.  This module measures them, tests assert them, and
``benchmarks/test_ext_maintenance.py`` prints them:

- heavy-tailed AS degree distribution (power-law-ish tail);
- short AS paths (real 2005 Internet: mean ≈ 3.7, our target ≤ ~6);
- positive AS-hop ↔ latency correlation (paper property 3);
- a substantial multi-homed stub fraction (paper Fig. 4's shortcut);
- every selected policy route valley-free (Gao-Rexford consistency).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.bgp.routing import PolicyRouter
from repro.errors import TopologyError
from repro.topology.generator import Topology
from repro.util.rng import derive_rng


@dataclass(frozen=True)
class TopologyReport:
    """Measured structural properties of a topology."""

    as_count: int
    edge_count: int
    max_degree: int
    median_degree: float
    degree_tail_ratio: float       # p99 / median degree — tail heaviness
    multihomed_stub_fraction: float
    mean_policy_path_hops: float
    p90_policy_path_hops: float
    valley_free_rate: float        # of sampled selected routes
    reachable_rate: float          # of sampled pairs

    def rows(self) -> List[Tuple[str, object]]:
        return [
            ("ASes", self.as_count),
            ("edges", self.edge_count),
            ("max degree", self.max_degree),
            ("median degree", self.median_degree),
            ("degree tail ratio (p99/median)", self.degree_tail_ratio),
            ("multi-homed stub fraction", self.multihomed_stub_fraction),
            ("mean policy path hops", self.mean_policy_path_hops),
            ("p90 policy path hops", self.p90_policy_path_hops),
            ("valley-free rate of selected routes", self.valley_free_rate),
            ("reachable pair rate", self.reachable_rate),
        ]


def validate_topology(
    topology: Topology,
    sample_pairs: int = 400,
    seed: int = 0,
) -> TopologyReport:
    """Measure the report over a random sample of stub pairs."""
    graph = topology.graph
    ases = graph.ases()
    if len(ases) < 3:
        raise TopologyError("topology too small to validate")
    degrees = np.array([graph.degree(a) for a in ases], dtype=float)
    stubs = topology.stub_ases()
    multihomed = sum(1 for a in stubs if len(graph.providers(a)) >= 2)

    router = PolicyRouter(graph)
    rng = derive_rng(seed, "topology-validation")
    hops: List[int] = []
    valley_free = 0
    reachable = 0
    sampled = 0
    for _ in range(sample_pairs):
        a, b = (int(x) for x in rng.choice(stubs, size=2, replace=False))
        sampled += 1
        path = router.as_path(a, b)
        if path is None:
            continue
        reachable += 1
        hops.append(len(path) - 1)
        if graph.is_valley_free(path):
            valley_free += 1

    return TopologyReport(
        as_count=len(ases),
        edge_count=graph.edge_count(),
        max_degree=int(degrees.max()),
        median_degree=float(np.median(degrees)),
        degree_tail_ratio=float(np.percentile(degrees, 99) / max(np.median(degrees), 1.0)),
        multihomed_stub_fraction=multihomed / max(len(stubs), 1),
        mean_policy_path_hops=float(np.mean(hops)) if hops else float("nan"),
        p90_policy_path_hops=float(np.percentile(hops, 90)) if hops else float("nan"),
        valley_free_rate=valley_free / reachable if reachable else 0.0,
        reachable_rate=reachable / sampled if sampled else 0.0,
    )


@dataclass(frozen=True)
class LatencyRealismReport:
    """Latency-substrate properties the paper's results rest on."""

    hop_latency_correlation: float   # Pearson r over finite pairs
    median_rtt_ms: float
    latent_fraction_300ms: float
    policy_detour_fraction: float    # selected hops > shortest valley-free

    def rows(self) -> List[Tuple[str, object]]:
        return [
            ("AS-hop / RTT correlation", self.hop_latency_correlation),
            ("median delegate RTT (ms)", self.median_rtt_ms),
            ("latent pair fraction (>300 ms)", self.latent_fraction_300ms),
            ("policy detour fraction", self.policy_detour_fraction),
        ]


def validate_latency(scenario, sample_pairs: int = 300, seed: int = 0) -> LatencyRealismReport:
    """Measure latency-substrate realism on a built scenario."""
    matrices = scenario.matrices
    finite = np.isfinite(matrices.rtt_ms) & (matrices.as_hops > 0)
    hops = matrices.as_hops[finite].astype(float)
    rtts = matrices.rtt_ms[finite]
    correlation = float(np.corrcoef(hops, rtts)[0, 1]) if hops.size > 2 else 0.0

    rng = derive_rng(seed, "latency-validation")
    graph = scenario.topology.graph
    detours = 0
    checked = 0
    n = matrices.count
    for _ in range(sample_pairs):
        i, j = (int(x) for x in rng.integers(0, n, size=2))
        if i == j or matrices.as_hops[i, j] <= 0:
            continue
        src, dst = int(matrices.asn_of[i]), int(matrices.asn_of[j])
        if src == dst:
            continue
        shortest = graph.valley_free_distance(src, dst, max_hops=12)
        if shortest is None:
            continue
        checked += 1
        if matrices.as_hops[i, j] > shortest:
            detours += 1

    all_finite = matrices.rtt_ms[np.isfinite(matrices.rtt_ms)]
    return LatencyRealismReport(
        hop_latency_correlation=correlation,
        median_rtt_ms=float(np.median(all_finite)),
        latent_fraction_300ms=float(np.mean(all_finite > 300.0)),
        policy_detour_fraction=detours / checked if checked else 0.0,
    )
