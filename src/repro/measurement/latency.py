"""Ground-truth latency and loss over policy-routed paths.

Direct IP routing latency between two hosts is modelled as:

    access(a) + Σ_link propagation+jitter + Σ_AS processing+congestion + access(b)

where the AS-level path is the BGP policy route (valley-free,
customer > peer > provider), so latency automatically correlates with AS
hop count (paper property 3) and inflates when policy routing detours or
crosses congested ASes (paper Fig. 4).  Failed ASes are removed from the
routing graph entirely: paths through them simply do not exist, which the
measurement tools surface as timeouts.

All per-link jitter and per-AS processing delays are *deterministic*
functions of the scenario seed and the AS pair, so the ground truth is a
fixed hidden landscape that measurement tools (King, ping) sample with
their own independent noise — exactly the paper's setup, where the true
Internet is fixed and King estimates it.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.errors import MeasurementError
from repro.bgp.routing import PolicyRouter, RoutingTree
from repro.measurement.conditions import NetworkConditions
from repro.topology.generator import Topology
from repro.topology.population import Host, PeerPopulation

# Per-hop constants (one-way, milliseconds).
LINK_BASE_DELAY_MS = 0.4       # serialization + switching per inter-AS link
AS_PROCESSING_DELAY_MS = 0.3   # intra-AS transit cost per AS traversed
JITTER_SPREAD_MS = 2.0         # per-link deterministic "fixed jitter" scale

# The paper measures ~12 ms application-level relay delay on a 100 Mbps
# LAN and conservatively budgets 20 ms one-way / 40 ms RTT (Section 3.2).
RELAY_DELAY_ONE_WAY_MS = 20.0
RELAY_DELAY_RTT_MS = 40.0


class LatencyModel:
    """Path latency/loss oracle over one topology + conditions."""

    def __init__(
        self,
        topology: Topology,
        conditions: NetworkConditions,
        population: Optional[PeerPopulation] = None,
        seed: int = 0,
    ) -> None:
        self._topology = topology
        self._conditions = conditions
        self._population = population
        self._seed = seed
        effective = topology.graph
        if conditions.failed_ases:
            effective = topology.graph.without(conditions.failed_ases)
        self._router = PolicyRouter(effective)
        self._jitter_cache: Dict[Tuple[int, int], float] = {}
        # Conditions are frozen and the routing graph is fixed here, so
        # a pair's first one-way delay (or None) is its value for good.
        self._one_way: Dict[Tuple[int, int], Optional[float]] = {}

    @property
    def router(self) -> PolicyRouter:
        return self._router

    @property
    def conditions(self) -> NetworkConditions:
        return self._conditions

    # -- AS-level primitives -------------------------------------------------

    def link_delay_ms(self, a: int, b: int) -> float:
        """One-way delay of the inter-AS link a-b (order-insensitive),
        including any congestion penalty injected on that interconnect."""
        key = (min(a, b), max(a, b))
        cached = self._jitter_cache.get(key)
        if cached is None:
            # Deterministic per-link jitter from the scenario seed.
            mix = (key[0] * 1_000_003 + key[1] * 7_919 + self._seed * 104_729) % (2**32)
            jitter = float(np.random.default_rng(mix).exponential(JITTER_SPREAD_MS))
            cached = (
                self._topology.geography.propagation_delay_ms(a, b)
                + LINK_BASE_DELAY_MS
                + jitter
                + self._conditions.link_penalty_ms(a, b)
            )
            self._jitter_cache[key] = cached
        return cached

    def node_cost_ms(self, asn: int) -> float:
        """One-way cost of *transiting* an AS: processing + congestion.

        Congestion penalties model overloaded backbone interconnects, so
        they apply when an AS is crossed as transit (path interior).  An
        endpoint AS only contributes processing delay — traffic entering
        or leaving at the edge does not cross the congested core.  This
        matches the paper's Fig. 4, where the congested AS sits in the
        middle of the direct path and relays route around it.
        """
        return AS_PROCESSING_DELAY_MS + self._conditions.penalty_ms(asn)

    def endpoint_cost_ms(self, asn: int) -> float:
        """One-way cost of an AS at either end of a path (no congestion)."""
        return AS_PROCESSING_DELAY_MS

    def as_path(self, src_as: int, dst_as: int) -> Optional[Tuple[int, ...]]:
        """The direct-IP-routing AS path, or None when unreachable."""
        if src_as in self._conditions.failed_ases or dst_as in self._conditions.failed_ases:
            return None
        if src_as not in self._router.graph or dst_as not in self._router.graph:
            return None
        return self._router.as_path(src_as, dst_as)

    def path_one_way_ms(self, as_path: Sequence[int]) -> float:
        """One-way latency of an explicit AS path (no host access delays)."""
        nodes = list(as_path)
        if not nodes:
            raise MeasurementError("empty AS path")
        total = self.endpoint_cost_ms(nodes[0])
        if len(nodes) > 1:
            total += self.endpoint_cost_ms(nodes[-1])
            total += sum(self.node_cost_ms(asn) for asn in nodes[1:-1])
        for a, b in zip(nodes, nodes[1:]):
            total += self.link_delay_ms(a, b)
        return total

    # -- AS-to-AS and host-to-host RTT ----------------------------------------

    def as_one_way_ms(self, src_as: int, dst_as: int) -> Optional[float]:
        """One-way latency between two AS border routers, or None."""
        key = (src_as, dst_as)
        try:
            return self._one_way[key]
        except KeyError:
            pass
        if src_as == dst_as:
            one_way = self.endpoint_cost_ms(src_as)
        else:
            path = self.as_path(src_as, dst_as)
            one_way = None if path is None else self.path_one_way_ms(path)
        self._one_way[key] = one_way
        return one_way

    def as_rtt_ms(self, src_as: int, dst_as: int) -> Optional[float]:
        """Round-trip latency between two ASes (symmetric model)."""
        one_way = self.as_one_way_ms(src_as, dst_as)
        return None if one_way is None else 2.0 * one_way

    def host_rtt_ms(self, a: Host, b: Host) -> Optional[float]:
        """Direct IP routing RTT between two end hosts."""
        core = self.as_rtt_ms(a.asn, b.asn)
        if core is None:
            return None
        return core + 2.0 * (a.access_delay_ms + b.access_delay_ms)

    # -- relayed paths ---------------------------------------------------------

    def one_hop_relay_rtt_ms(self, a: Host, relay: Host, b: Host) -> Optional[float]:
        """RTT of the overlay path a→relay→b, including relay delay."""
        first = self.host_rtt_ms(a, relay)
        second = self.host_rtt_ms(relay, b)
        if first is None or second is None:
            return None
        return first + second + RELAY_DELAY_RTT_MS

    def routing_trees(self, dst_ases: Sequence[int]) -> Iterator[Optional[RoutingTree]]:
        """The policy routing tree toward each AS in order (``None`` if
        the AS failed or is unknown), built in batches
        (:meth:`PolicyRouter.trees`) and not cached: hold a tree only as
        long as it is read."""
        graph, failed = self._router.graph, self._conditions.failed_ases
        routable = [asn not in failed and asn in graph for asn in dst_ases]
        built = self._router.trees(asn for asn, ok in zip(dst_ases, routable) if ok)
        return (next(built) if ok else None for ok in routable)
