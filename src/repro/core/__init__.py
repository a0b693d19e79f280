"""The ASAP protocol (paper Section 6).

Three node roles: **bootstraps** (dedicated servers: prefix→AS and
prefix→surrogate mapping, AS-graph dissemination), **cluster surrogates**
(the most capable host of each prefix cluster: builds and serves the
cluster's *close cluster set*), and **end hosts** (join, publish nodal
info, and run close-relay selection when calling).

The two algorithms from the paper's Figs. 9-10:

- :func:`repro.core.close_cluster.construct_close_cluster_set` — a
  valley-free-constrained BFS (≤ k AS hops) over the annotated AS graph,
  measuring surrogate-to-surrogate RTT/loss and pruning expansion at
  clusters that fail the thresholds;
- :func:`repro.core.relay_selection.select_close_relay` — intersect the
  endpoints' close cluster sets for one-hop relays; when too few, expand
  through one-hop candidates' close sets for two-hop relays.
"""

from repro.core.config import ASAPConfig, derive_k_hops
from repro.core.close_cluster import CloseClusterEntry, CloseClusterSet, construct_close_cluster_set
from repro.core.relay_selection import RelaySelection, select_close_relay
from repro.core.protocol import ASAPSession, ASAPSystem
from repro.core.assignment import RelayAssignment, RelayAssignmentService
from repro.core.dial import (
    DialResult,
    FailoverEvent,
    JoinRecord,
    MediaSessionRecord,
    RuntimePolicy,
)
from repro.core.runtime import ASAPRuntime

__all__ = [
    "ASAPConfig",
    "ASAPRuntime",
    "DialResult",
    "FailoverEvent",
    "JoinRecord",
    "MediaSessionRecord",
    "RuntimePolicy",
    "ASAPSession",
    "ASAPSystem",
    "CloseClusterEntry",
    "CloseClusterSet",
    "RelayAssignment",
    "RelayAssignmentService",
    "RelaySelection",
    "construct_close_cluster_set",
    "derive_k_hops",
    "select_close_relay",
]
