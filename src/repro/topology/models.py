"""Alternative AS-topology families for robustness studies.

The main generator (:mod:`repro.topology.generator`) builds a tiered
Internet.  To show the reproduction's conclusions are not an artifact
of that particular family, this module builds two classical families
with the same output contract (annotated graph + geography + tiers):

- **Barabási–Albert** — flat preferential attachment; provider/customer
  direction assigned old→new (earlier, higher-degree nodes provide for
  later arrivals), plus a peered top clique so the graph has a
  transit-free core;
- **Waxman** — random geometric: edge probability decays with distance;
  direction assigned by degree at annotation time.

Both produce valid Gao-Rexford worlds (every non-core AS has a
provider), so the entire pipeline — BGP feed, inference, policy
routing, ASAP — runs on them unchanged.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

import numpy as np

from repro.errors import TopologyError
from repro.bgp.asgraph import ASGraph
from repro.topology.generator import Topology, TopologyConfig
from repro.topology.geography import Geography
from repro.util.rng import derive_rng

#: ASes in the peered, transit-free core of either family.
CORE_SIZE = 6
#: Barabási–Albert: providers each new AS attaches to.
ATTACHMENT = 2
#: Waxman: edge probability ``WAXMAN_ALPHA * exp(-d / WAXMAN_BETA_KM)``.
WAXMAN_ALPHA, WAXMAN_BETA_KM = 0.08, 3500.0


def generate_barabasi_albert(as_count: int = 450, seed: int = 0) -> Topology:
    """Flat preferential-attachment topology with a peered core."""
    core_size = CORE_SIZE
    if as_count < core_size + 2:
        raise TopologyError("as_count too small for the requested core")
    rng = derive_rng(seed, "ba-topology")
    graph = ASGraph()
    geography = Geography()
    tier_of: Dict[int, int] = {}

    core = list(range(1, core_size + 1))
    for i, asn in enumerate(core):
        graph.add_as(asn)
        tier_of[asn] = 1
        x = (i + 0.5) * geography.width_km / core_size
        geography.place(asn, x, float(rng.uniform(0.3, 0.7)) * geography.height_km)
    for i, a in enumerate(core):
        for b in core[i + 1:]:
            graph.add_peer(a, b)

    # Repeated-node list drives preferential attachment.
    attachment_pool: List[int] = list(core) * 2
    for asn in range(core_size + 1, as_count + 1):
        graph.add_as(asn)
        providers: Set[int] = set()
        attempts = 0
        while len(providers) < min(ATTACHMENT, asn - 1) and attempts < 50:
            attempts += 1
            provider = int(attachment_pool[int(rng.integers(0, len(attachment_pool)))])
            if provider != asn and graph.relationship(provider, asn) is None:
                graph.add_provider_customer(provider, asn)
                providers.add(provider)
        if not providers:
            fallback = core[int(rng.integers(0, len(core)))]
            graph.add_provider_customer(fallback, asn)
            providers.add(fallback)
        anchor = min(providers)
        geography.place_near(asn, anchor, rng, 1500.0)
        attachment_pool.extend(providers)
        attachment_pool.append(asn)
        tier_of[asn] = 3 if len(graph.customers(asn)) == 0 else 2

    # Tier labels: any AS that ends up with customers is transit.
    for asn in graph.ases():
        if tier_of.get(asn) == 1:
            continue
        tier_of[asn] = 2 if graph.customers(asn) else 3

    topology = Topology(
        config=TopologyConfig(
            tier1_count=core_size,
            tier2_count=max(1, sum(1 for t in tier_of.values() if t == 2)),
            tier3_count=max(1, sum(1 for t in tier_of.values() if t == 3)),
            seed=seed,
        ),
        graph=graph,
        geography=geography,
        tier_of=tier_of,
    )
    topology.validate()
    return topology


def generate_waxman(as_count: int = 450, seed: int = 0) -> Topology:
    """Random-geometric (Waxman) topology, degree-annotated.

    Edge (a, b) exists with probability ``WAXMAN_ALPHA *
    exp(-d(a,b)/WAXMAN_BETA_KM)``; the higher-degree endpoint becomes the
    provider.  A peered core of the :data:`CORE_SIZE` highest-degree
    nodes guarantees a transit-free top, and every component is stitched
    to the core so the world is connected.
    """
    core_size = CORE_SIZE
    if as_count < core_size + 2:
        raise TopologyError("as_count too small for the requested core")
    rng = derive_rng(seed, "waxman-topology")
    geography = Geography()
    positions: Dict[int, Tuple[float, float]] = {}
    for asn in range(1, as_count + 1):
        geography.place_random(asn, rng)
        positions[asn] = geography.coords[asn]

    # Sample undirected edges.
    edges: List[Tuple[int, int]] = []
    degree: Dict[int, int] = {asn: 0 for asn in range(1, as_count + 1)}
    for a in range(1, as_count + 1):
        for b in range(a + 1, as_count + 1):
            d = geography.distance_km(a, b)
            if rng.random() < WAXMAN_ALPHA * np.exp(-d / WAXMAN_BETA_KM):
                edges.append((a, b))
                degree[a] += 1
                degree[b] += 1

    core = sorted(degree, key=lambda a: (-degree[a], a))[:core_size]
    core_set = set(core)

    graph = ASGraph()
    for asn in range(1, as_count + 1):
        graph.add_as(asn)
    for i, a in enumerate(core):
        for b in core[i + 1:]:
            graph.add_peer(a, b)
    for a, b in edges:
        if graph.relationship(a, b) is not None:
            continue
        # Higher degree provides; ties break toward the lower ASN.
        provider, customer = (a, b) if (degree[a], -a) >= (degree[b], -b) else (b, a)
        if customer in core_set and provider not in core_set:
            provider, customer = customer, provider
        graph.add_provider_customer(provider, customer)

    # Stitch parentless non-core nodes (and disconnected components) to
    # the nearest core member so validate() holds.
    for asn in range(1, as_count + 1):
        if asn in core_set:
            continue
        if not graph.providers(asn):
            nearest = min(core, key=lambda c: geography.distance_km(asn, c))
            if graph.relationship(nearest, asn) is None:
                graph.add_provider_customer(nearest, asn)

    tier_of = {
        asn: 1 if asn in core_set else (2 if graph.customers(asn) else 3)
        for asn in range(1, as_count + 1)
    }
    topology = Topology(
        config=TopologyConfig(
            tier1_count=core_size,
            tier2_count=max(1, sum(1 for t in tier_of.values() if t == 2)),
            tier3_count=max(1, sum(1 for t in tier_of.values() if t == 3)),
            seed=seed,
        ),
        graph=graph,
        geography=geography,
        tier_of=tier_of,
    )
    topology.validate()
    return topology
