"""Tiered Internet-like AS topology generator.

Produces an annotated :class:`~repro.bgp.asgraph.ASGraph` with three tiers:

- **tier 1** — a small clique-ish core of transit-free ASes, mutually
  peered, scattered globally;
- **tier 2** — regional transit providers, each buying transit from one
  or more tier-1/tier-2 ASes (preferential attachment → heavy-tailed
  degrees) and peering laterally with geographically close tier-2s;
- **tier 3** — stub/edge ASes (the ones that host end users), each with
  one provider, or several when multi-homed (paper Fig. 4 relies on
  multi-homed stubs acting as shortcuts).

A small fraction of sibling edges models organizations running several
ASNs.  Determinism: the same ``seed`` always yields the same topology.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.errors import ConfigurationError, TopologyError
from repro.bgp.asgraph import ASGraph
from repro.topology.geography import Geography
from repro.util.rng import derive_rng


@dataclass(frozen=True)
class TopologyConfig:
    """Structural knobs of the generated AS-level Internet."""

    tier1_count: int = 8
    tier2_count: int = 60
    tier3_count: int = 400
    # Probability that a tier-3 stub is multi-homed (2+ providers).
    multihoming_probability: float = 0.35
    # Maximum providers for a multi-homed stub.
    max_stub_providers: int = 3
    # Mean number of lateral peer edges per tier-2 AS.  Dense regional
    # peering keeps AS paths short (real Internet averages ~4 AS hops),
    # which the paper's k = 4 close-cluster search depends on.
    tier2_peering_degree: float = 4.0
    # Probability that a tier-3 stub buys transit directly from a tier-1
    # (large enterprises/content networks do).
    tier3_direct_tier1_probability: float = 0.15
    # Probability a tier-2 AS buys transit from a second provider.
    tier2_multihoming_probability: float = 0.5
    # Fraction of ASes that get a sibling companion AS.
    sibling_fraction: float = 0.01
    # Geographic spread of tier-2 around their first provider and of
    # tier-3 around theirs, in km.
    tier2_spread_km: float = 2000.0
    tier3_spread_km: float = 600.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.tier1_count < 2:
            raise ConfigurationError("tier1_count must be >= 2")
        if self.tier2_count < 1 or self.tier3_count < 1:
            raise ConfigurationError("tier2_count and tier3_count must be >= 1")
        if not 0.0 <= self.multihoming_probability <= 1.0:
            raise ConfigurationError("multihoming_probability must be in [0, 1]")
        if not 0.0 <= self.tier2_multihoming_probability <= 1.0:
            raise ConfigurationError("tier2_multihoming_probability must be in [0, 1]")
        if not 0.0 <= self.sibling_fraction <= 1.0:
            raise ConfigurationError("sibling_fraction must be in [0, 1]")
        if self.max_stub_providers < 2:
            raise ConfigurationError("max_stub_providers must be >= 2")


@dataclass
class Topology:
    """A generated AS-level Internet: annotated graph + geography + tiers."""

    config: TopologyConfig
    graph: ASGraph
    geography: Geography
    tier_of: Dict[int, int] = field(default_factory=dict)

    def stub_ases(self) -> List[int]:
        """Tier-3 ASes — where end hosts live."""
        return sorted(a for a, t in self.tier_of.items() if t == 3)

    def transit_ases(self) -> List[int]:
        """Tier-1 and tier-2 ASes."""
        return sorted(a for a, t in self.tier_of.items() if t in (1, 2))

    def validate(self) -> None:
        """Check structural invariants; raises TopologyError on violation.

        Every non-tier-1 AS must have at least one provider (so default
        routes exist), and every AS must have coordinates.
        """
        for asn, tier in self.tier_of.items():
            if asn not in self.geography:
                raise TopologyError(f"AS {asn} has no coordinates")
            if tier != 1 and not self.graph.providers(asn) and not self.graph.siblings(asn):
                raise TopologyError(f"non-tier-1 AS {asn} has no provider")


def generate_topology(config: TopologyConfig = TopologyConfig()) -> Topology:
    """Generate a deterministic annotated topology from ``config``."""
    rng = derive_rng(config.seed, "topology")
    graph = ASGraph()
    geography = Geography()
    tier_of: Dict[int, int] = {}
    next_asn = 1

    # --- tier 1: global core, full peer mesh -------------------------------
    tier1: List[int] = []
    for i in range(config.tier1_count):
        asn = next_asn
        next_asn += 1
        graph.add_as(asn)
        tier_of[asn] = 1
        # Spread the core evenly in x with random latitude, so the map has
        # distinct "continents" of customer cones.
        x = (i + 0.5) * geography.width_km / config.tier1_count
        y = float(rng.uniform(0.2, 0.8)) * geography.height_km
        geography.place(asn, x, y)
        tier1.append(asn)
    for i, a in enumerate(tier1):
        for b in tier1[i + 1:]:
            graph.add_peer(a, b)

    # --- tier 2: regional transit, preferential attachment -----------------
    tier2: List[int] = []
    for _ in range(config.tier2_count):
        asn = next_asn
        next_asn += 1
        graph.add_as(asn)
        tier_of[asn] = 2
        primary = _preferential_pick(rng, graph, tier1 + tier2)
        graph.add_provider_customer(primary, asn)
        geography.place_near(asn, primary, rng, config.tier2_spread_km)
        if rng.random() < config.tier2_multihoming_probability:
            candidates = [a for a in tier1 + tier2 if a not in (asn, primary)]
            secondary = _geo_preferential_pick(rng, graph, geography, asn, candidates)
            if secondary is not None and graph.relationship(secondary, asn) is None:
                graph.add_provider_customer(secondary, asn)
        tier2.append(asn)

    # Lateral tier-2 peering, biased toward geographic proximity.
    _add_tier2_peering(rng, graph, geography, tier2, config.tier2_peering_degree)

    # --- tier 3: stubs ------------------------------------------------------
    tier3: List[int] = []
    for _ in range(config.tier3_count):
        asn = next_asn
        next_asn += 1
        graph.add_as(asn)
        tier_of[asn] = 3
        primary = _preferential_pick(rng, graph, tier2)
        graph.add_provider_customer(primary, asn)
        geography.place_near(asn, primary, rng, config.tier3_spread_km)
        if rng.random() < config.multihoming_probability:
            extra = int(rng.integers(1, config.max_stub_providers))
            pool = [a for a in tier2 if a != primary and graph.relationship(a, asn) is None]
            for _ in range(extra):
                provider = _geo_preferential_pick(rng, graph, geography, asn, pool)
                if provider is None:
                    break
                graph.add_provider_customer(provider, asn)
                pool.remove(provider)
        if rng.random() < config.tier3_direct_tier1_probability:
            t1 = _geo_preferential_pick(
                rng, graph, geography, asn,
                [a for a in tier1 if graph.relationship(a, asn) is None],
            )
            if t1 is not None:
                graph.add_provider_customer(t1, asn)
        tier3.append(asn)

    # --- sibling companions --------------------------------------------------
    all_ases = tier1 + tier2 + tier3
    sibling_count = int(round(config.sibling_fraction * len(all_ases)))
    for owner in rng.choice(all_ases, size=sibling_count, replace=False) if sibling_count else []:
        owner = int(owner)
        asn = next_asn
        next_asn += 1
        graph.add_as(asn)
        tier_of[asn] = tier_of[owner]
        graph.add_sibling(owner, asn)
        geography.place_near(asn, owner, rng, 200.0)
        # A sibling still needs transit of its own when its twin is a stub.
        if tier_of[owner] == 3:
            provider = _preferential_pick(rng, graph, tier2)
            if graph.relationship(provider, asn) is None:
                graph.add_provider_customer(provider, asn)

    topology = Topology(config=config, graph=graph, geography=geography, tier_of=tier_of)
    topology.validate()
    return topology


def _preferential_pick(
    rng: np.random.Generator, graph: ASGraph, candidates: List[int]
) -> int:
    """Pick one candidate with probability proportional to degree + 1."""
    if not candidates:
        raise TopologyError("no candidate providers available")
    weights = np.array([graph.degree(a) + 1.0 for a in candidates])
    weights /= weights.sum()
    return int(rng.choice(candidates, p=weights))


#: Distance scale of :func:`_geo_preferential_pick`'s proximity weight.
PROVIDER_LOCALITY_KM = 2500.0


def _geo_preferential_pick(
    rng: np.random.Generator,
    graph: ASGraph,
    geography: Geography,
    buyer: int,
    candidates: List[int],
) -> Optional[int]:
    """Pick a provider weighted by degree *and* geographic proximity.

    Transit is bought regionally in practice; without the proximity term
    multi-homed ASes end up with antipodal providers and policy paths
    zigzag across the map, inflating every RTT.
    """
    if not candidates:
        return None
    weights = np.array(
        [
            (graph.degree(a) + 1.0)
            * np.exp(-geography.distance_km(buyer, a) / PROVIDER_LOCALITY_KM)
            for a in candidates
        ]
    )
    total = weights.sum()
    if total <= 0:
        return int(rng.choice(candidates))
    return int(rng.choice(candidates, p=weights / total))


def _add_tier2_peering(
    rng: np.random.Generator,
    graph: ASGraph,
    geography: Geography,
    tier2: List[int],
    mean_degree: float,
) -> None:
    """Add lateral tier-2 peer edges preferring geographically close pairs."""
    if len(tier2) < 2 or mean_degree <= 0:
        return
    target_edges = int(round(mean_degree * len(tier2) / 2.0))
    attempts = 0
    added = 0
    while added < target_edges and attempts < target_edges * 20:
        attempts += 1
        a, b = (int(x) for x in rng.choice(tier2, size=2, replace=False))
        if graph.relationship(a, b) is not None:
            continue
        # Accept with probability decaying in distance → regional IXPs.
        dist = geography.distance_km(a, b)
        accept = float(np.exp(-dist / 4000.0))
        if rng.random() < accept:
            graph.add_peer(a, b)
            added += 1
