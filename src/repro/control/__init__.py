"""``repro.control`` — the live, sharded, churn-tolerant control plane.

The paper's evaluation is one static snapshot, but its protocol text
assumes an always-on control plane: hosts join and leave continuously
(§6.1), surrogates periodically rebuild close sets (§6.3), and the
bootstrap/directory must survive its own failures.  This package makes
that regime first-class:

- :mod:`repro.control.sharding` — a deterministic consistent-hash ring
  that splits the bootstrap directory by prefix-cluster, plus the
  client-side router host agents use to find (and fail over between)
  directory shards;
- :mod:`repro.control.directory` — the sharded soft-state registry
  itself: TTL-bounded entries, ring-successor failover when the owning
  shard is down, byte-stable operation log;
- :mod:`repro.control.maintainer` — incremental close-set repair: a
  :class:`CloseSetMaintainer` drains join/leave events and patches the
  affected close sets in place, falling back to a from-scratch build
  only when an expansion verdict flips, so the maintained sets stay
  *parity-exact* with the Fig. 9 oracle (``tests/oracles.py``) on the
  same world state.

Everything is seed-deterministic: same seed → same shard placements,
same repair sequence, same logs.
"""

from repro.control.directory import DirectoryStats, ShardedDirectory
from repro.control.maintainer import (
    CloseSetMaintainer,
    ClusterMembership,
    MembershipEvent,
)
from repro.control.sharding import BootstrapRouter, HashRing

__all__ = [
    "BootstrapRouter",
    "CloseSetMaintainer",
    "ClusterMembership",
    "DirectoryStats",
    "HashRing",
    "MembershipEvent",
    "ShardedDirectory",
]
