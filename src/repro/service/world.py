"""The deterministic world every service daemon agrees on.

A TCP deployment spans processes: ``repro serve`` runs the bootstrap
and surrogates, ``repro dial`` runs the calling host agents.  They
share no memory — what they share is the *construction*: a scenario
built from the same ``(scale, seed)`` is bit-identical everywhere, so
cluster membership, surrogate election and latency ground truth agree
across processes without any state transfer.  :class:`ServiceWorld`
wraps that shared construction plus the lookups daemons need.
"""

from __future__ import annotations

from dataclasses import replace
from functools import cached_property
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.config import ASAPConfig, derive_k_hops
from repro.core.protocol import ASAPSystem
from repro.core.runtime import make_bootstrap_hosts
from repro.netaddr import IPv4Address
from repro.scenario import Scenario, ScenarioConfig, build_scenario
from repro.topology.population import Host
from repro.worldarrays.closesets import CloseClusterSet

__all__ = ["ServiceWorld"]


class ServiceWorld:
    """One scenario plus the ASAP state daemons consult.

    The embedded :class:`ASAPSystem` is the authoritative protocol
    state *within one process* (the bootstrap's join registry, the
    surrogates' close sets); cross-process coherence comes from
    deterministic construction, not sharing.
    """

    def __init__(self, scenario: Scenario, config: Optional[ASAPConfig] = None) -> None:
        self.scenario = scenario
        if config is None:
            config = ASAPConfig(k_hops=derive_k_hops(scenario.matrix_view()))
        self.config = config
        self.system = ASAPSystem(scenario, config)
        self._cluster_by_index = {
            scenario.matrix_view().index_of[cluster.prefix]: cluster
            for cluster in scenario.clusters.all_clusters()
        }
        #: The bootstrap's host identity: the simulated runtime's first
        #: dedicated bootstrap server.
        self.bootstrap_host = make_bootstrap_hosts(scenario, 1)[0]

    @classmethod
    def from_scale(
        cls,
        scale: str = "tiny",
        seed: int = 0,
        cache_dir: Optional[str] = None,
    ) -> "ServiceWorld":
        config = replace(ScenarioConfig.preset(scale, seed), cache_dir=cache_dir)
        return cls(build_scenario(config))

    # -- lookups -----------------------------------------------------------

    def host(self, ip: IPv4Address) -> Host:
        if ip == self.bootstrap_host.ip:
            return self.bootstrap_host
        return self.scenario.population.by_ip(ip)

    def cluster_of_ip(self, ip: IPv4Address) -> int:
        return self.system.cluster_of_ip(ip)

    def hosts_in_cluster(self, cluster_index: int) -> List[Host]:
        cluster = self._cluster_by_index.get(cluster_index)
        return list(cluster.hosts) if cluster is not None else []

    def populated_clusters(self) -> List[int]:
        """Matrix indices of clusters holding at least one host."""
        return sorted(
            idx for idx, cluster in self._cluster_by_index.items() if cluster.hosts
        )

    def surrogate_ip(self, cluster_index: int) -> IPv4Address:
        """The elected surrogate identity of a cluster (deterministic,
        so every process derives the same answer)."""
        return self.system.surrogate(cluster_index).ip

    def surrogate_ips(self) -> set:
        """IPs of every populated cluster's elected surrogate.  Those
        hosts run the surrogate daemon, so demos must not double-book
        them as endpoints or relays (one address, one daemon)."""
        return {self.surrogate_ip(idx) for idx in self.populated_clusters()}

    def close_set(self, cluster_index: int) -> CloseClusterSet:
        return self.system.close_set(cluster_index)

    @cached_property
    def _host_at(self) -> Dict[str, Host]:
        """Wire address key (a scenario IP in dotted form) -> host."""
        host_at = {str(self.bootstrap_host.ip): self.bootstrap_host}
        host_at.update((str(host.ip), host) for host in self.scenario.population.hosts)
        return host_at

    def wire_rtt_ms(
        self, src: str, dst: str, unmodeled: Optional[float] = None
    ) -> Optional[float]:
        """Ground-truth RTT between two wire address keys (scenario IPs in
        dotted form): the one rule every overlay transport is shaped by.
        ``unmodeled`` answers for an address the world has no host at."""
        a, b = self._host_at.get(src), self._host_at.get(dst)
        if a is None or b is None:
            return unmodeled
        return self.scenario.latency.host_rtt_ms(a, b)

    # -- workload ----------------------------------------------------------

    def latent_pairs(self, count: int) -> List[Tuple[IPv4Address, IPv4Address]]:
        """Host pairs whose direct path misses the latency threshold but
        that have at least one quality relay path — the calls where the
        relay machinery actually runs.  Worst direct RTT first."""
        rtt = self.scenario.matrices.rtt_ms
        threshold = self.config.lat_threshold_ms
        # Cluster pairs a < b in (-rtt, a, b) order: nonzero walks the
        # upper triangle (a, b) ascending and the sort is stable.
        first, second = np.nonzero(np.triu(np.isfinite(rtt) & (rtt >= threshold), k=1))
        order = np.argsort(-rtt[first, second], kind="stable")
        reserved = self.surrogate_ips()
        pairs: List[Tuple[IPv4Address, IPv4Address]] = []
        for a, b in zip(first[order].tolist(), second[order].tolist()):
            if len(pairs) >= count:
                break
            caller = next(
                (h.ip for h in self.hosts_in_cluster(a) if h.ip not in reserved),
                None,
            )
            callee = next(
                (h.ip for h in self.hosts_in_cluster(b) if h.ip not in reserved),
                None,
            )
            if caller is None or callee is None:
                continue
            session = self.system.call(caller, callee)
            if session.selection is not None and session.selection.quality_paths > 0:
                pairs.append((caller, callee))
        return pairs
