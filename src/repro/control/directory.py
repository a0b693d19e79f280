"""The sharded, soft-state directory the churn soak exercises.

Real P2P directories (the measured Skype supernode layer) are
*soft-state*: a registration is a lease, refreshed by the host and
expired by TTL, so a crashed shard loses nothing durable — hosts
re-register on the next refresh pass and stale entries age out.  That
is the property that makes "registry size bounded under equal
join/leave rates" provable rather than hoped for.

:class:`ShardedDirectory` keeps leases in arrays, one row per host,
placed by the :class:`~repro.control.sharding.HashRing`.  When a shard
is down (a ``shard-down`` fault), joins fail over to the ring successor
and resolves walk the preference chain, so the directory converges
after the owner recovers: refreshes return to the owner, the
successor's copies expire.  A refresh pass (``refresh_many``) is a few
array writes plus one log line per join that missed its owner.

Every mutation appends one canonical JSON line to the operation log —
the byte-stable artifact the soak's determinism check diffs.  The wire
:class:`~repro.service.bootstrap.BootstrapServer` is a one-shard instance.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import asdict, dataclass
from itertools import filterfalse
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.control.sharding import HashRing
from repro.errors import ConfigurationError
from repro.netaddr import IPv4Address

__all__ = ["DirectoryStats", "ShardedDirectory"]

#: ``json.dumps(doc, sort_keys=True, separators=(",", ":"))`` without
#: building an encoder per call.
_canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
#: Each octet's decimal text, for address texts built column-wise.
_OCTETS = np.array([str(octet) for octet in range(256)], dtype=object)


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
    """Lease arrays sharded by prefix-cluster over a hash ring."""

    def __init__(
        self,
        ring: HashRing,
        cluster_of_ip: Callable[[IPv4Address], int],
        ttl_ms: float = 600_000.0,
    ) -> None:
        if not ttl_ms > 0:  # NaN fails too; inf is a lease that never expires
            raise ConfigurationError(f"ttl_ms must be positive, got {ttl_ms}")
        self._ring = ring
        self._cluster_of_ip = cluster_of_ip
        self._ttl_ms = ttl_ms
        # Placement, once per host: a row (keyed by the address's int)
        # holding the address and its ring chain's id, appendable columns.
        self._rows: Dict[int, int] = {}
        self._chain_ids: Dict[object, int] = {}
        self._chains: List[Tuple[int, ...]] = []
        self._value, self._chain_of = array("q"), array("q")
        # Lease columns, shard x row capacity: held, expiry, address.
        self._held, self._expires_ms, self._addr = (
            np.zeros((ring.shard_count, 0), dtype=dtype) for dtype in (bool, float, object)
        )
        self._sizes = [0] * ring.shard_count
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

    def _row(self, ip: IPv4Address) -> int:
        row = self._rows.get(ip.value)
        return self._place([ip]) if row is None else row

    def _chain(self, ip: IPv4Address) -> Tuple[int, ...]:
        """The ring chain of a host that has no row, without placing it
        (an address that never joins must not grow the directory)."""
        return self._ring.chain(self._cluster_of_ip(ip))

    def _rows_of(self, ips: Sequence[IPv4Address]) -> np.ndarray:
        get = self._rows.get
        rows = [get(ip.value) for ip in ips]
        if None in rows:
            self._place(list({ip.value: ip for ip, row in zip(ips, rows) if row is None}.values()))
            rows = [get(ip.value) for ip in ips]
        return np.array(rows, dtype=np.intp)

    def _place(self, ips: List[IPv4Address]) -> int:
        """Give new hosts the next rows; returns the first one."""
        first = len(self._value)
        clusters = list(map(self._cluster_of_ip, ips))
        for cluster in set(clusters).difference(self._chain_ids):
            chain = self._ring.chain(cluster)
            if chain not in self._chains:
                self._chains.append(chain)
            self._chain_ids[cluster] = self._chains.index(chain)
        values = [ip.value for ip in ips]
        self._rows.update(zip(values, range(first, first + len(values))))
        self._value.extend(values)
        self._chain_of.extend(map(self._chain_ids.__getitem__, clusters))
        if len(self._value) > self._held.shape[1]:  # at least double: amortized O(1)
            grow = (self.shard_count, max(64, len(self._value)))
            self._held, self._expires_ms, self._addr = (
                np.hstack([column, np.zeros(grow, column.dtype)])
                for column in (self._held, self._expires_ms, self._addr)
            )
        return first

    def _first_up(self, chain: Tuple[int, ...]) -> int:
        """Where a join lands: the chain's first live shard (-1: none)."""
        return next(filterfalse(self._down.__contains__, chain), -1)

    # -- logging ---------------------------------------------------------------

    def _log(self, at_ms: float, kind: str, **fields) -> None:
        doc = {"at_ms": round(at_ms, 3), "kind": kind}
        doc.update(fields)
        self.log.append(_canonical_json(doc))

    def _log_joins(self, at_ms: float, rows, owners, shards) -> None:
        """Count and log, in order, joins that missed their owner (arrays;
        shard -1: failed).  The lines are :meth:`_log`'s bytes, built column-wise:
        address text from octet strings, one tail per (owner, shard)."""
        values = np.frombuffer(self._value, dtype=np.int64)[rows]
        text = _OCTETS[values >> 24]
        for shift in (16, 8, 0):
            text = text + "." + _OCTETS[(values >> shift) & 0xFF]
        span = range(-1, self.shard_count)  # tails[owner, shard + 1]
        tails = np.array([[f'","kind":"join-failed","owner":{o}}}' if s < 0 else
                           f'","kind":"join-failover","owner":{o},"shard":{s}}}' for s in span]
                          for o in range(self.shard_count)], dtype=object)
        head = f'{{"at_ms":{_canonical_json(round(at_ms, 3))},"ip":"'
        self.log += (head + text + tails[owners, shards + 1]).tolist()
        failed = int(np.count_nonzero(shards < 0))
        for name, count in (("failover_joins", rows.size - failed), ("failed_joins", failed)):
            if count:
                setattr(self, name, getattr(self, name) + count)
                obs.counter(f"control.directory.{name}").inc(count)

    # -- operations ------------------------------------------------------------

    def _lease(self, shard, row, at_ms: float, addr: str):
        """The join rule's write, for one lease or for arrays of them over
        distinct rows: renew a lease the shard holds, insert one it lacks.
        Returns which were inserted; the caller books them."""
        fresh = ~self._held[shard, row]
        self._held[shard, row] = True
        self._expires_ms[shard, row] = at_ms + self._ttl_ms
        self._addr[shard, row] = addr
        return fresh

    def join(self, ip: IPv4Address, at_ms: float, addr: str = "") -> Optional[int]:
        """Register (or refresh) a host's lease, advertising ``addr``, on
        the first live shard of its preference chain; returns the shard
        used, None when the whole chain is down.  Re-registration is
        idempotent: the lease is renewed in place, the registry never
        grows for a repeated join."""
        self.joins += 1
        row = self._row(ip)
        chain = self._chains[self._chain_of[row]]
        shard = self._first_up(chain)
        if shard >= 0 and self._lease(shard, row, at_ms, addr):
            self._sizes[shard] += 1
            self.peak_total = max(self.peak_total, self.total())  # only an insert raises it
        elif shard >= 0:
            self.refreshes += 1
        if shard != chain[0]:
            self._log_joins(at_ms, np.array([row]), np.array([chain[0]]), np.array([shard]))
        return shard if shard >= 0 else None

    def refresh_many(self, ips: Sequence[IPv4Address], at_ms: float) -> np.ndarray:
        """``for ip in ips: join(ip, at_ms)`` over distinct hosts — the
        same counters, obs totals and log lines, in order — as a few array
        passes.  Returns each host's shard, -1 where its chain is down."""
        rows = self._rows_of(ips)
        if rows.size and np.bincount(rows).max() > 1:
            raise ValueError("refresh_many takes distinct hosts")
        self.joins += rows.size
        chain_ids = np.frombuffer(self._chain_of, dtype=np.int64)[rows]
        shards = np.array([self._first_up(c) for c in self._chains], dtype=np.intp)[chain_ids]
        up = shards >= 0
        live = shards[up]
        fresh = self._lease(live, rows[up], at_ms, "")
        added = np.bincount(live[fresh], minlength=self.shard_count).tolist()
        self._sizes = [size + count for size, count in zip(self._sizes, added)]
        self.refreshes += live.size - sum(added)
        self.peak_total = max(self.peak_total, self.total())  # the total only rose
        owners = np.array([c[0] for c in self._chains], dtype=np.intp)[chain_ids]
        off = shards != owners
        if off.any():
            self._log_joins(at_ms, rows[off], owners[off], shards[off])
        return shards

    def leave(self, ip: IPv4Address, at_ms: float) -> int:
        """Deregister from every *live* shard holding the lease (entries
        on a down shard linger until its post-recovery sweep)."""
        self.leaves += 1
        removed = 0
        row = self._rows.get(ip.value)
        if row is None:  # never joined: no lease on any shard of its chain
            self._chain(ip)
        else:
            for shard in self._chains[self._chain_of[row]]:
                if shard not in self._down and self._held[shard, row]:
                    self._held[shard, row] = False
                    self._sizes[shard] -= 1
                    removed += 1
        self.removals += removed
        self._log(at_ms, "leave", ip=str(ip), removed=removed)
        return removed

    def resolve(self, ip: IPv4Address, at_ms: float) -> Optional[Tuple[int, int, str]]:
        """Look a host up along its preference chain.

        Returns ``(shard, attempts, addr)`` for a live unexpired lease,
        None on a miss — a *well-formed* not-found, never a hang.
        """
        self.resolves += 1
        attempts = 0
        row = self._rows.get(ip.value)
        if row is None:  # never joined: no lease on any shard of its chain
            self._chain(ip)
        else:
            for shard in self._chains[self._chain_of[row]]:
                if shard in self._down:
                    continue
                attempts += 1
                if self._held[shard, row] and self._expires_ms[shard, row] > at_ms:
                    return shard, attempts, self._addr[shard, row]
        self.resolve_misses += 1
        return None

    def sweep(self, at_ms: float) -> int:
        """Expire TTL-stale leases on every live shard (one compare)."""
        stale = self._held & (self._expires_ms <= at_ms)
        stale[sorted(self._down)] = False
        counts = stale.sum(axis=1).tolist()
        dropped = sum(counts)
        if dropped:
            self._held &= ~stale
            self._sizes = [size - count for size, count in zip(self._sizes, counts)]
            self.swept += dropped
            self._log(at_ms, "sweep", dropped=dropped)
        return dropped

    # -- shard liveness ----------------------------------------------------------

    def set_shard_down(self, shard: int, at_ms: float) -> None:
        if 0 <= shard < self.shard_count and shard not in self._down:
            self._down.add(shard)
            obs.counter("control.directory.shard_outages").inc()
            self._log(at_ms, "shard-down", shard=shard, lost=self._sizes[shard])

    def set_shard_up(self, shard: int, at_ms: float) -> None:
        """Recover a shard.  Its process restarted: the in-memory
        registry it held is gone — soft state rebuilds it."""
        if shard in self._down:
            self._down.discard(shard)
            self._held[shard] = False
            self._sizes[shard] = 0
            self._log(at_ms, "shard-up", shard=shard)

    # -- accounting --------------------------------------------------------------

    def sizes(self) -> Tuple[int, ...]:
        return tuple(self._sizes)

    def total(self) -> int:
        return sum(self._sizes)

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
