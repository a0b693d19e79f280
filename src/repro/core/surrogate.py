"""Cluster surrogate nodes (paper Section 6.1).

A surrogate is the most capable online host of its prefix cluster.  It
builds the cluster's close cluster set over the AS graph, answers close
cluster set requests from cluster members and remote callers, collects
nodal information from its cluster, and recommends a hand-off when a
better-provisioned host appears.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.netaddr import IPv4Address
from repro.topology.population import Host, NodalInfo
from repro.worldarrays.closesets import CloseClusterSet


@dataclass
class Surrogate:
    """The surrogate of one prefix cluster."""

    cluster: int                 # matrix index of the cluster
    asn: int
    host: Host
    #: ``build(cluster, asn)`` returns the close cluster set and reports
    #: it as built (``close_set.build``) — in a running system,
    #: :class:`ASAPSystem`'s, which hands out a set its batch sweep
    #: computed, equal to :meth:`FlatCloseSetBuilder.build`'s.
    build: Callable[[int, int], CloseClusterSet] = field(repr=False)
    close_set_requests: int = 0
    published_info: Dict[IPv4Address, NodalInfo] = field(default_factory=dict)
    # §6.3 load sharing: replica surrogates of a large cluster serve the
    # primary's close set instead of re-probing the network themselves.
    close_set_source: Optional["Surrogate"] = field(default=None, repr=False)
    _close_set: Optional[CloseClusterSet] = field(default=None, repr=False)

    @property
    def ip(self) -> IPv4Address:
        return self.host.ip

    def close_set(self) -> CloseClusterSet:
        """The cluster's close cluster set (built on first use, cached)."""
        if self.close_set_source is not None:
            return self.close_set_source.close_set()
        if self._close_set is None:
            self._close_set = self.build(self.cluster, self.asn)
        return self._close_set

    @property
    def has_close_set(self) -> bool:
        """Whether this surrogate holds a built close set (replicas hold
        none: they serve their primary's)."""
        return self._close_set is not None

    def adopt(self, close_set: CloseClusterSet) -> None:
        """Install a close set built elsewhere (a batch build) in place
        of the one :meth:`close_set` would build on first use."""
        self._close_set = close_set

    def serve_close_set(self) -> CloseClusterSet:
        """Answer a close-cluster-set request (from members or callers)."""
        self.close_set_requests += 1
        return self.close_set()

    def accept_nodal_info(self, ip: IPv4Address, info: NodalInfo) -> None:
        """Record a cluster member's published capability record."""
        self.published_info[ip] = info

    @property
    def maintenance_messages(self) -> int:
        """Probe traffic spent building the current close set."""
        return self._close_set.probe_messages if self._close_set else 0
