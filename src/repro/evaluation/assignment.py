"""Load-aware relay assignment (paper §6.2's final pick).

After select-close-relay returns candidates, the endpoints "pick the
most suitable relay nodes" by "comprehensively considering factors
including traffic load conditions and reliabilities of the close relay
nodes as well as RTTs and packet loss rates".  This module implements
that final step as a system-wide assignment service:

- each relay IP has a concurrent-session capacity (from its published
  bandwidth: a relayed G.729 call costs ~30 kbps each way);
- a session picks the least-loaded relay among the candidates within a
  latency slack of the best (quality first, then load);
- releases return capacity when calls end.

The scalability consequence the paper implies: ASAP's enormous
candidate sets let load spread thin, while a fixed fleet (DEDI)
concentrates every session on the same 80 nodes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.relay_selection import RelaySelection
from repro.errors import ProtocolError
from repro.measurement.matrix import DelegateMatrices
from repro.netaddr import IPv4Address
from repro.topology.clustering import ClusterIndex
from repro.util.rng import derive_rng

#: Bandwidth cost of relaying one call, both directions (kbps).
RELAY_SESSION_KBPS = 64.0


def relay_capacity(bandwidth_kbps: float) -> int:
    """Concurrent relayed calls a host can carry with half its uplink."""
    return max(1, int(bandwidth_kbps * 0.5 / RELAY_SESSION_KBPS))


@dataclass
class RelayAssignment:
    """One session's assigned relay."""

    session_id: int
    relay_ip: IPv4Address
    relay_cluster: int
    relay_rtt_ms: float


class RelayAssignmentService:
    """Tracks per-relay load and performs the §6.2 final pick."""

    def __init__(
        self,
        clusters: ClusterIndex,
        matrices: DelegateMatrices,
        latency_slack_ms: float = 30.0,
        seed: int = 0,
    ) -> None:
        if latency_slack_ms < 0:
            raise ProtocolError("latency_slack_ms must be non-negative")
        self._clusters = clusters
        self._matrices = matrices
        self._slack = latency_slack_ms
        self._rng = derive_rng(seed, "relay-assignment")
        self.load: Counter = Counter()            # relay IP → active sessions
        self._assignments: Dict[int, RelayAssignment] = {}

    # -- capacity ---------------------------------------------------------

    # -- assignment ---------------------------------------------------------

    def assign(
        self,
        session_id: int,
        selection: RelaySelection,
        max_candidate_clusters: int = 8,
    ) -> Optional[RelayAssignment]:
        """Pick the least-loaded relay IP among near-best candidates.

        Considers one-hop candidate clusters within ``latency_slack_ms``
        of the best candidate, and within them every member IP with
        spare capacity; picks the lowest-utilization IP (ties broken
        randomly but deterministically per session).  Returns None when
        no candidate has spare capacity.
        """
        if session_id in self._assignments:
            raise ProtocolError(f"session {session_id} already assigned")
        ranked = selection.one_hop_ranked()
        if not ranked:
            return None
        best_rtt = ranked[0][0]
        eligible = [
            (rtt, cluster) for rtt, cluster in ranked[:max_candidate_clusters]
            if rtt <= best_rtt + self._slack
        ]
        candidates: List[Tuple[float, float, IPv4Address, int, float]] = []
        for relay_rtt, relay_cluster in eligible:
            prefix = self._matrices.prefixes[relay_cluster]
            cluster = self._clusters.clusters.get(prefix)
            if cluster is None:
                continue
            for host in cluster.hosts:
                cap = relay_capacity(host.info.bandwidth_kbps)
                if self.load[host.ip] >= cap:
                    continue
                utilization = self.load[host.ip] / cap
                jitter = float(self._rng.random()) * 1e-6
                candidates.append((utilization, jitter, host.ip, relay_cluster, relay_rtt))
        if not candidates:
            return None
        utilization, _, ip, cluster_idx, rtt = min(candidates)
        self.load[ip] += 1
        assignment = RelayAssignment(
            session_id=session_id,
            relay_ip=ip,
            relay_cluster=cluster_idx,
            relay_rtt_ms=rtt,
        )
        self._assignments[session_id] = assignment
        return assignment

    def release(self, session_id: int) -> None:
        """End a session and return its relay's capacity."""
        assignment = self._assignments.pop(session_id, None)
        if assignment is None:
            raise ProtocolError(f"session {session_id} has no assignment")
        self.load[assignment.relay_ip] -= 1
        if self.load[assignment.relay_ip] <= 0:
            del self.load[assignment.relay_ip]

    # -- reporting --------------------------------------------------------------

    def distinct_relays(self) -> int:
        return len(self.load)

    def max_load(self) -> int:
        return max(self.load.values(), default=0)

    def load_distribution(self) -> List[int]:
        return sorted(self.load.values(), reverse=True)
