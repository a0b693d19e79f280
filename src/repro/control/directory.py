"""The sharded, soft-state directory the churn soak exercises.

Real P2P directories (the measured Skype supernode layer) are
*soft-state*: a registration is a lease, refreshed by the host and
expired by TTL, so a crashed shard loses nothing durable — hosts
re-register on the next refresh pass and stale entries age out.  That
is the property that makes "registry size bounded under equal
join/leave rates" provable rather than hoped for.

:class:`ShardedDirectory` keeps one registry dict per shard, placed by
the :class:`~repro.control.sharding.HashRing`.  When a shard is down
(a ``shard-down`` fault), joins fail over to the ring successor and
resolves walk the preference chain, so the directory converges after
the owner recovers: refreshes return to the owner, the successor's
copies expire.

Every mutation appends one canonical JSON line to the operation log —
the byte-stable artifact the soak's determinism check diffs.  The wire
:class:`~repro.service.bootstrap.BootstrapServer` is a one-shard instance.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro import obs
from repro.control.sharding import HashRing
from repro.netaddr import IPv4Address

__all__ = ["DirectoryStats", "RegistryEntry", "ShardedDirectory"]

#: ``json.dumps(doc, sort_keys=True, separators=(",", ":"))`` without
#: building an encoder per call (a shard outage logs every refresh).
_canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


@dataclass
class RegistryEntry:
    """One leased registration (soft state: refreshed or expired)."""

    ip: str
    registered_ms: float
    expires_ms: float
    addr: str = ""  # the transport address advertised ("" in the simulator)


@dataclass(frozen=True)
class DirectoryStats:
    """Counters one soak run accumulated over the directory."""

    joins: int
    failover_joins: int
    failed_joins: int
    leaves: int
    resolves: int
    resolve_misses: int
    swept: int

    def to_dict(self) -> dict:
        return asdict(self)


class ShardedDirectory:
    """Registry dicts sharded by prefix-cluster over a hash ring."""

    def __init__(
        self,
        ring: HashRing,
        cluster_of_ip: Callable[[IPv4Address], int],
        ttl_ms: float = 600_000.0,
    ) -> None:
        self._ring = ring
        self._cluster_of_ip = cluster_of_ip
        self._ttl_ms = ttl_ms
        self._shards: List[Dict[str, RegistryEntry]] = [
            {} for _ in range(ring.shard_count)
        ]
        # Per-host placement, resolved once: (registry key, ring chain),
        # keyed by the address's int (hashed in C, unlike the dataclass).
        self._placement: Dict[int, Tuple[str, Tuple[int, ...]]] = {}
        self._down: set = set()
        self.log: List[str] = []
        self.joins = 0
        self.failover_joins = 0
        self.failed_joins = 0
        self.leaves = 0
        #: Joins that renewed a live lease / leases a leave removed.
        self.refreshes = 0
        self.removals = 0
        self.resolves = 0
        self.resolve_misses = 0
        self.swept = 0
        self.peak_total = 0

    # -- placement -----------------------------------------------------------

    @property
    def shard_count(self) -> int:
        return self._ring.shard_count

    def _place(self, ip: IPv4Address) -> Tuple[str, Tuple[int, ...]]:
        placed = self._placement.get(ip.value)
        if placed is None:
            chain = self._ring.chain(self._cluster_of_ip(ip))
            placed = self._placement[ip.value] = (str(ip), chain)
        return placed

    def is_up(self, shard: int) -> bool:
        return shard not in self._down

    # -- logging ---------------------------------------------------------------

    def _log(self, at_ms: float, kind: str, **fields) -> None:
        doc = {"at_ms": round(at_ms, 3), "kind": kind}
        doc.update(fields)
        self.log.append(_canonical_json(doc))

    # -- operations ------------------------------------------------------------

    def join(self, ip: IPv4Address, at_ms: float, addr: str = "") -> Optional[int]:
        """Register (or refresh) a host's lease, advertising ``addr``, on
        the first live shard of its preference chain; returns the shard
        used, None when the whole chain is down.  Re-registration is
        idempotent: the lease is renewed in place, the registry never
        grows for a repeated join."""
        self.joins += 1
        text, chain = self._place(ip)
        owner = chain[0]
        for shard in chain:
            if shard in self._down:
                continue
            registry = self._shards[shard]
            entry = registry.get(text)
            if entry is None:
                registry[text] = RegistryEntry(
                    ip=text, registered_ms=at_ms, expires_ms=at_ms + self._ttl_ms, addr=addr
                )
                # Only an insertion can raise the total.
                self.peak_total = max(self.peak_total, self.total())
            else:
                self.refreshes += 1
                entry.registered_ms = at_ms
                entry.expires_ms = at_ms + self._ttl_ms
                entry.addr = addr
            if shard != owner:
                self.failover_joins += 1
                obs.counter("control.directory.failover_joins").inc()
                self._log(at_ms, "join-failover", ip=text, owner=owner, shard=shard)
            return shard
        self.failed_joins += 1
        obs.counter("control.directory.failed_joins").inc()
        self._log(at_ms, "join-failed", ip=text, owner=owner)
        return None

    def leave(self, ip: IPv4Address, at_ms: float) -> int:
        """Deregister from every *live* shard holding the lease (entries
        on a down shard linger until its post-recovery sweep)."""
        self.leaves += 1
        removed = 0
        text, chain = self._place(ip)
        for shard in chain:
            if not self.is_up(shard):
                continue
            if self._shards[shard].pop(text, None) is not None:
                removed += 1
        self.removals += removed
        self._log(at_ms, "leave", ip=text, removed=removed)
        return removed

    def resolve(self, ip: IPv4Address, at_ms: float) -> Optional[Tuple[int, int, str]]:
        """Look a host up along its preference chain.

        Returns ``(shard, attempts, addr)`` for a live unexpired lease,
        None on a miss — a *well-formed* not-found, never a hang.
        """
        self.resolves += 1
        attempts = 0
        text, chain = self._place(ip)
        for shard in chain:
            if not self.is_up(shard):
                continue
            attempts += 1
            entry = self._shards[shard].get(text)
            if entry is not None and entry.expires_ms > at_ms:
                return shard, attempts, entry.addr
        self.resolve_misses += 1
        return None

    def sweep(self, at_ms: float) -> int:
        """Expire TTL-stale leases on every live shard."""
        dropped = 0
        for shard, registry in enumerate(self._shards):
            if not self.is_up(shard):
                continue
            stale = [ip for ip, entry in registry.items() if entry.expires_ms <= at_ms]
            for ip in stale:
                del registry[ip]
            dropped += len(stale)
        if dropped:
            self.swept += dropped
            self._log(at_ms, "sweep", dropped=dropped)
        return dropped

    # -- shard liveness ----------------------------------------------------------

    def set_shard_down(self, shard: int, at_ms: float) -> None:
        if 0 <= shard < self.shard_count and shard not in self._down:
            self._down.add(shard)
            obs.counter("control.directory.shard_outages").inc()
            self._log(at_ms, "shard-down", shard=shard, lost=len(self._shards[shard]))

    def set_shard_up(self, shard: int, at_ms: float) -> None:
        """Recover a shard.  Its process restarted: the in-memory
        registry it held is gone — soft state rebuilds it."""
        if shard in self._down:
            self._down.discard(shard)
            self._shards[shard].clear()
            self._log(at_ms, "shard-up", shard=shard)

    # -- accounting --------------------------------------------------------------

    def sizes(self) -> Tuple[int, ...]:
        return tuple(len(registry) for registry in self._shards)

    def total(self) -> int:
        return sum(map(len, self._shards))

    def stats(self) -> DirectoryStats:
        return DirectoryStats(
            joins=self.joins,
            failover_joins=self.failover_joins,
            failed_joins=self.failed_joins,
            leaves=self.leaves,
            resolves=self.resolves,
            resolve_misses=self.resolve_misses,
            swept=self.swept,
        )
