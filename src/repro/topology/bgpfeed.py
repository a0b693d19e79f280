"""Synthetic BGP feed: RIB snapshots + update streams for a topology.

This plays the role of RouteViews/RIPE RIS in the paper's pipeline.  A
set of vantage-point ASes (the collector's BGP peers) each export their
selected policy route for every announced prefix; the result is a RIB
snapshot in our dump format that the *parsing* side of the library
(:mod:`repro.bgp.rib`) ingests — the generator and the consumer only meet
through the serialized text, exactly like real collectors and analysis
pipelines do.
"""

from __future__ import annotations

from typing import List

from repro.errors import TopologyError
from repro.netaddr import IPv4Address
from repro.bgp.rib import RIBEntry
from repro.bgp.routing import PolicyRouter
from repro.bgp.updates import BGPUpdate
from repro.topology.generator import Topology
from repro.topology.prefixes import PrefixAllocation
from repro.util.rng import derive_rng

# The paper's snapshot moment: 2005-09-26 00:00:00 US Eastern ≈ this epoch.
DEFAULT_SNAPSHOT_TS = 1127707200


def pick_vantage_ases(topology: Topology, count: int, seed: int = 0) -> List[int]:
    """Choose vantage ASes: a mix of the best-connected transit ASes.

    Real collectors peer with large transit networks, so vantages are
    drawn from the top of the degree distribution.
    """
    transit = topology.transit_ases()
    if not transit:
        raise TopologyError("topology has no transit ASes for vantage points")
    ranked = sorted(transit, key=lambda a: (-topology.graph.degree(a), a))
    top = ranked[: max(count * 3, count)]
    rng = derive_rng(seed, "vantages")
    if count >= len(top):
        return top
    picked = rng.choice(top, size=count, replace=False)
    return sorted(int(a) for a in picked)


def _vantage_peer_ip(allocation: PrefixAllocation, asn: int) -> IPv4Address:
    """A stable collector-facing IP for a vantage AS (first host of its
    first prefix)."""
    prefixes = allocation.prefixes_of.get(asn)
    if not prefixes:
        raise TopologyError(f"vantage AS {asn} owns no prefix")
    return prefixes[0].nth_address(1)


def generate_rib_entries(
    topology: Topology,
    allocation: PrefixAllocation,
    vantage_count: int = 10,
    seed: int = 0,
) -> List[RIBEntry]:
    """Export every vantage AS's selected route for every prefix."""
    router = PolicyRouter(topology.graph)
    vantages = pick_vantage_ases(topology, vantage_count, seed=seed)
    peer_ip_of = {vantage: _vantage_peer_ip(allocation, vantage) for vantage in vantages}
    origins = sorted(allocation.prefixes_of.items())
    entries: List[RIBEntry] = []
    # ``trees`` builds one batch of origins per sweep and keeps none, so
    # only the batch being read is alive (all 8,294 at ``100k``: 620 MB).
    for (_, prefixes), tree in zip(origins, router.trees(origin for origin, _ in origins)):
        for vantage in vantages:
            path = tree.path_from(vantage)
            if path is None:
                continue
            for prefix in prefixes:
                entries.append(
                    RIBEntry(
                        timestamp=DEFAULT_SNAPSHOT_TS,
                        peer=peer_ip_of[vantage],
                        prefix=prefix,
                        as_path=path,
                        origin="IGP",
                    )
                )
    if not entries:
        raise TopologyError("no RIB entries generated — topology disconnected?")
    return entries


def generate_update_stream(
    topology: Topology,
    allocation: PrefixAllocation,
    churn_fraction: float = 0.02,
    vantage_count: int = 10,
    seed: int = 0,
) -> List[BGPUpdate]:
    """A plausible update stream: withdraw/re-announce churn on a random
    subset of prefixes, interleaved in time after the snapshot."""
    if not 0.0 <= churn_fraction <= 1.0:
        raise TopologyError("churn_fraction must be in [0, 1]")
    # An origin's churned prefixes are consecutive reads of one cached
    # tree; the RNG draws depend on each path, so no batch here.
    router = PolicyRouter(topology.graph, cache_size=1)
    rng = derive_rng(seed, "bgp-updates")
    vantages = pick_vantage_ases(topology, vantage_count, seed=seed)
    updates: List[BGPUpdate] = []
    ts = DEFAULT_SNAPSHOT_TS
    for origin_as, prefixes in sorted(allocation.prefixes_of.items()):
        for prefix in prefixes:
            if rng.random() >= churn_fraction:
                continue
            vantage = int(rng.choice(vantages))
            path = router.tree(origin_as).path_from(vantage)
            if path is None:
                continue
            peer_ip = _vantage_peer_ip(allocation, vantage)
            ts += int(rng.integers(1, 30))
            updates.append(
                BGPUpdate(
                    kind="WITHDRAW", timestamp=ts, peer=peer_ip, prefix=prefix
                )
            )
            ts += int(rng.integers(1, 30))
            updates.append(
                BGPUpdate(
                    kind="ANNOUNCE",
                    timestamp=ts,
                    peer=peer_ip,
                    prefix=prefix,
                    as_path=tuple(path),
                    origin="IGP",
                )
            )
    return updates
