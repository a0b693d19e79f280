"""IP clustering at the prefix level, with cluster delegates (§3.1).

The paper groups collected IPs by their longest-matched BGP prefix
(following Krishnamurthy & Wang's network-aware clustering) and picks one
random IP per cluster as its *delegate* for pairwise RTT measurements.
This module reproduces exactly that step, driven by a real
:class:`~repro.bgp.prefix_table.PrefixOriginTable` built from parsed RIB
data rather than by generator-internal knowledge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import TopologyError
from repro.netaddr import IPv4Address, IPv4Prefix
from repro.bgp.prefix_table import PrefixOriginTable
from repro.topology.population import Host, PeerPopulation
from repro.util.rng import derive_rng


@dataclass
class Cluster:
    """All online hosts sharing one longest-matched announced prefix."""

    prefix: IPv4Prefix
    asn: int
    hosts: List[Host] = field(default_factory=list)
    delegate: Optional[Host] = None

    def __len__(self) -> int:
        return len(self.hosts)


@dataclass
class ClusterIndex:
    """Cluster lookup structures used throughout measurement + protocol."""

    clusters: Dict[IPv4Prefix, Cluster] = field(default_factory=dict)
    _cluster_of_ip: Dict[IPv4Address, Cluster] = field(default_factory=dict)
    unmatched: List[Host] = field(default_factory=list)

    def cluster_of(self, ip: IPv4Address) -> Cluster:
        try:
            return self._cluster_of_ip[ip]
        except KeyError:
            raise TopologyError(f"IP {ip} is not in any cluster") from None

    def __contains__(self, ip: IPv4Address) -> bool:
        return ip in self._cluster_of_ip

    def __len__(self) -> int:
        return len(self.clusters)

    def all_clusters(self) -> List[Cluster]:
        return [self.clusters[p] for p in sorted(self.clusters)]

    def host_table(
        self, hosts: Sequence[Host], index_of: Dict[IPv4Prefix, int]
    ) -> Tuple[List[IPv4Address], np.ndarray]:
        """``(ips, clusters)``: each of ``hosts``' IP and the matrix index
        (under ``index_of``) of its cluster.

        World-static, so it is computed once per ``(hosts, index_of)``
        pair and kept beside the fields (never compared or pickled).
        Raises :class:`TopologyError` for a host in no cluster.
        """
        cached = self.__dict__.get("_host_table")
        if (
            cached is None
            or cached[0] is not hosts
            or cached[1] is not index_of
            or len(cached[2]) != len(hosts)
        ):
            ips = [host.ip for host in hosts]
            clusters = np.array(
                [index_of[self.cluster_of(ip).prefix] for ip in ips], dtype=np.int64
            )
            cached = self.__dict__["_host_table"] = (hosts, index_of, ips, clusters)
        return cached[2], cached[3]

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_host_table", None)
        return state

    def occupancy_distribution(self) -> List[int]:
        """Cluster sizes, descending — §6.3's '90% hold ≤100 hosts' check."""
        return sorted((len(c) for c in self.all_clusters()), reverse=True)


def build_clusters(
    population: PeerPopulation,
    prefix_table: PrefixOriginTable,
    seed: int = 0,
) -> ClusterIndex:
    """Group hosts by longest-matched announced prefix and pick delegates.

    Hosts whose IP matches no announced prefix are recorded in
    ``index.unmatched`` (the real crawl had such IPs too: only 103,625 of
    269,413 addresses matched a prefix).
    """
    rng = derive_rng(seed, "clustering")
    index = ClusterIndex()
    for host in population.hosts:
        match = prefix_table.lookup(host.ip)
        if match is None:
            index.unmatched.append(host)
            continue
        prefix, origin_as = match
        cluster = index.clusters.get(prefix)
        if cluster is None:
            cluster = Cluster(prefix=prefix, asn=origin_as)
            index.clusters[prefix] = cluster
        cluster.hosts.append(host)
        index._cluster_of_ip[host.ip] = cluster
    for cluster in index.all_clusters():
        pick = int(rng.integers(0, len(cluster.hosts)))
        cluster.delegate = cluster.hosts[pick]
    return index
