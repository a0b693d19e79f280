"""The ASAP protocol (paper Section 6).

Three node roles: **bootstraps** (dedicated servers: map a joining IP
to its prefix cluster and serving surrogate, keep the directory of
joined hosts — :meth:`ASAPSystem.join` and
:class:`repro.control.ShardedDirectory`), **cluster surrogates** (the
most capable host of each prefix cluster: builds and serves the
cluster's *close cluster set*), and **end hosts** (join, publish nodal
info, and run close-relay selection when calling — :mod:`repro.core.dial`).

The two algorithms from the paper's Figs. 9-10:

- close-cluster-set construction — a valley-free-constrained BFS (≤ k
  AS hops) over the annotated AS graph, measuring surrogate-to-surrogate
  RTT/loss and pruning expansion at clusters that fail the thresholds
  (:class:`repro.worldarrays.FlatCloseSetBuilder`; the scalar Fig. 9
  transcription it is held to lives in ``tests/oracles.py``);
- :func:`repro.core.relay_selection.select_close_relay` — intersect the
  endpoints' close cluster sets for one-hop relays; when too few, expand
  through one-hop candidates' close sets for two-hop relays.
"""

from repro.core.config import ASAPConfig, derive_k_hops
from repro.core.relay_selection import RelaySelection, select_close_relay
from repro.core.protocol import ASAPSession, ASAPSystem
from repro.core.dial import (
    DialResult,
    FailoverEvent,
    JoinRecord,
    MediaSessionRecord,
)
from repro.core.runtime import ASAPRuntime

__all__ = [
    "ASAPConfig",
    "ASAPRuntime",
    "DialResult",
    "FailoverEvent",
    "JoinRecord",
    "MediaSessionRecord",
    "ASAPSession",
    "ASAPSystem",
    "RelaySelection",
    "derive_k_hops",
    "select_close_relay",
]
