"""The bootstrap daemon: registration plus the overlay's directory.

In the paper the bootstrap server hands a joining host its cluster and
serving surrogate (§6.1).  On a real wire it additionally plays
directory: nodes register their transport address at join time, and
anyone can resolve ``ip → wire address`` later.  Host agents resolve
relay candidates through it before attempting a relay setup, so only
IPs with a *running* agent behind them are ever dialed — the wire
analogue of the simulator's "is this host registered" check.  The
registrations live in a one-shard :class:`~repro.control.ShardedDirectory`.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro import obs
from repro.control.directory import ShardedDirectory
from repro.control.sharding import HashRing
from repro.errors import TopologyError
from repro.net.codec import (
    ERR_NOT_SERVING,
    ROLE_SURROGATE,
    ErrorFrame,
    Join,
    JoinOk,
    Leave,
    Message,
    Ping,
    Pong,
    Resolve,
    ResolveOk,
)
from repro.net.transport import Transport
from repro.netaddr import IPv4Address
from repro.service.node import ServiceNode
from repro.service.world import ServiceWorld

__all__ = ["BootstrapServer"]


class BootstrapServer(ServiceNode):
    """Registration + directory over one :class:`ServiceWorld`.

    A server may be one shard of a sharded control plane: give it a
    ``ring`` and its ``shard_id`` and it still answers every request
    (clients fail over freely), but joins for IPs another shard owns
    are tallied in ``foreign_joins`` so tests can assert the router
    sends traffic where the ring says it belongs.
    """

    def __init__(
        self,
        world: ServiceWorld,
        transport: Transport,
        shard_id: int = 0,
        ring: Optional[HashRing] = None,
    ) -> None:
        super().__init__(transport, name=f"bootstrap-{shard_id}" if ring else "bootstrap")
        self._world = world
        self.shard_id = shard_id
        self.ring = ring
        #: Every registration (ip -> advertised wire address).  The TTL is
        #: unbounded: wire hosts do not refresh their leases.
        self.registry = ShardedDirectory(HashRing(1), lambda ip: 0, ttl_ms=float("inf"))
        #: cluster index -> (surrogate ip, wire address) of the daemon
        #: that registered to serve it.
        self.surrogates: Dict[int, Tuple[IPv4Address, str]] = {}
        self.foreign_joins = 0
        self.handle(Join, self._on_join)
        self.handle(Leave, self._on_leave)
        self.handle(Resolve, self._on_resolve)
        self.handle(Ping, self._on_ping)

    async def _on_join(self, sender: str, message: Join) -> Message:
        if message.role == ROLE_SURROGATE and message.cluster >= 0:
            cluster = message.cluster
        else:
            try:
                cluster = self._world.cluster_of_ip(message.ip)
            except TopologyError:
                # Outside the world: answer, and register nothing.
                return ErrorFrame(code=ERR_NOT_SERVING, detail=f"no cluster covers {message.ip}")
        refreshes = self.registry.refreshes
        self.registry.join(message.ip, self.now_ms(), message.wire_addr)
        duplicate = self.registry.refreshes > refreshes
        if duplicate:
            obs.counter("service.duplicate_joins").inc()
        obs.counter("service.joins").inc()
        if self.ring is not None and self.ring.owner(cluster) != self.shard_id:
            self.foreign_joins += 1
            obs.counter("service.foreign_joins").inc()
        if message.role == ROLE_SURROGATE:
            self.surrogates[cluster] = (message.ip, message.wire_addr)
            return JoinOk(
                cluster=cluster,
                surrogate_ip=message.ip,
                surrogate_addr=message.wire_addr,
            )
        if not duplicate:
            self._world.system.join(message.ip)
        serving = self.surrogates.get(cluster)
        if serving is None:
            return ErrorFrame(
                code=ERR_NOT_SERVING,
                detail=f"no surrogate daemon serves cluster {cluster}",
            )
        surrogate_ip, surrogate_addr = serving
        return JoinOk(cluster=cluster, surrogate_ip=surrogate_ip, surrogate_addr=surrogate_addr)

    async def _on_leave(self, sender: str, message: Leave) -> Optional[Message]:
        """Best-effort deregistration (oneway, so no response frame).

        Unknown IPs are ignored — a Leave racing a TTL sweep or a
        duplicate Leave must not fault the directory."""
        if self.registry.leave(message.ip, self.now_ms()):
            obs.counter("service.leaves").inc()
        return None

    async def _on_resolve(self, sender: str, message: Resolve) -> Message:
        hit = self.registry.resolve(message.ip, self.now_ms())
        return ResolveOk(
            ip=message.ip,
            found=1 if hit is not None else 0,
            addr=hit[2] if hit is not None else "",
        )

    async def _on_ping(self, sender: str, message: Ping) -> Message:
        return Pong(token=message.token)
