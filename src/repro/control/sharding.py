"""Consistent-hash sharding of the bootstrap directory by prefix-cluster.

One directory for a million hosts is the first thing churn kills (the
measured Skype supernode story).  The control plane splits it: each
prefix-cluster's registrations live on the shard that owns the cluster
id on a consistent-hash ring.  Placement must be *deterministic across
processes* — a joining host and the shard serving it compute the owner
independently — so the ring hashes with BLAKE2 (stable bytes), never
Python's randomized ``hash()``.

Two moving parts:

- :class:`HashRing` — ``shards × virtual_nodes`` points on a 64-bit
  ring; ``chain(key)`` is the walk clockwise from the key's hash, the
  distinct shards in successor order (the failover chain when the owner
  is down), ``owner(key)`` is its head;
- :class:`BootstrapRouter` — the client-side view: cluster id → the
  wire addresses a host agent should try, owner first.  A plain
  single-bootstrap deployment is the degenerate one-shard router, so
  every existing call path works unchanged.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.errors import ConfigurationError
from repro.netaddr import IPv4Address

__all__ = ["BootstrapRouter", "HashRing"]


def _stable_hash(data: str) -> int:
    """64-bit BLAKE2 hash — identical in every process and run."""
    return int.from_bytes(
        hashlib.blake2b(data.encode("utf-8"), digest_size=8).digest(), "big"
    )


class HashRing:
    """A consistent-hash ring over ``shard_count`` directory shards.

    Each shard contributes ``virtual_nodes`` points so load stays even
    when shards are few; a key's owner is the first point clockwise
    from the key's hash.  Keys are prefix-cluster ids (any int/str).
    """

    def __init__(
        self, shard_count: int, virtual_nodes: int = 16, salt: str = "asap-ring"
    ) -> None:
        if shard_count < 1:
            raise ConfigurationError("shard_count must be >= 1")
        if virtual_nodes < 1:
            raise ConfigurationError("virtual_nodes must be >= 1")
        self.shard_count = shard_count
        self.virtual_nodes = virtual_nodes
        points: List[Tuple[int, int]] = []
        for shard in range(shard_count):
            for replica in range(virtual_nodes):
                points.append((_stable_hash(f"{salt}:{shard}:{replica}"), shard))
        points.sort()
        self._hashes = [h for h, _ in points]
        self._shards = [s for _, s in points]
        # The chain walked from each ring point, once per ring.
        self._walks = [tuple(dict.fromkeys(self._shards[at:] + self._shards[:at]))
                       for at in range(len(points) + 1)]
        # Placement is static, so each key's chain is found once.  Keyed
        # by the hashed text, so keys that compare equal but format
        # differently (1 and True) never share a chain.
        self._chains: Dict[str, Tuple[int, ...]] = {}

    def chain(self, key) -> Tuple[int, ...]:
        """Every shard in clockwise order from the key, each once: the
        owner, then its ring successors — the full failover chain."""
        text = f"key:{key}"
        chain = self._chains.get(text)
        if chain is None:
            start = bisect.bisect_right(self._hashes, _stable_hash(text))
            chain = self._chains[text] = self._walks[start]
            obs.counter("control.ring.chains").inc()
        return chain

    def owner(self, key) -> int:
        """The shard owning a key (first ring point clockwise)."""
        return self.chain(key)[0]

    def preference(self, key, count: Optional[int] = None) -> List[int]:
        """The first ``count`` shards of the key's chain (all of them by
        default) — the failover order."""
        if count is not None and count < 1:
            raise ConfigurationError(f"preference count must be >= 1, got {count}")
        return list(self.chain(key)[:count])


class BootstrapRouter:
    """Client-side shard resolution: which bootstrap addresses serve a key.

    ``cluster_of_ip`` maps an overlay IP to its prefix-cluster id (the
    sharding key); ``shard_addrs[i]`` is shard *i*'s wire address.  The
    router is pure computation — no I/O, no liveness state — so every
    agent derives the same owner and the same failover order.
    """

    def __init__(
        self,
        ring: HashRing,
        shard_addrs: Sequence[str],
        cluster_of_ip: Callable[[IPv4Address], int],
    ) -> None:
        if len(shard_addrs) != ring.shard_count:
            raise ConfigurationError(
                f"{len(shard_addrs)} addresses for {ring.shard_count} shards"
            )
        self._ring = ring
        self._addrs = list(shard_addrs)
        self._cluster_of_ip = cluster_of_ip

    @classmethod
    def single(cls, addr: str) -> "BootstrapRouter":
        """The degenerate one-shard router (a plain bootstrap address)."""
        return cls(HashRing(1, 1), [addr], lambda ip: 0)

    @property
    def shard_count(self) -> int:
        return self._ring.shard_count

    @property
    def addrs(self) -> List[str]:
        return list(self._addrs)

    def addrs_for(self, ip: IPv4Address) -> List[str]:
        """Directory addresses for an overlay IP, owner shard first."""
        key = self._cluster_of_ip(ip)
        return [self._addrs[s] for s in self._ring.preference(key)]

    def owner_addr(self, ip: IPv4Address) -> str:
        return self._addrs[self._ring.owner(self._cluster_of_ip(ip))]
