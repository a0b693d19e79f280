"""The surrogate daemon: close-cluster-set service for one cluster.

A surrogate (§6.2) maintains its cluster's close cluster set and serves
it to members and callers.  The daemon reuses the simulator's
:class:`repro.core.surrogate.Surrogate` state (via the world's
``ASAPSystem``) for set construction — the wire layer changes how the
set *travels*, not how it is *built* — and serializes it as one
table of ``(cluster, rtt)`` entries, exactly the fields select-close-relay
consumes.  Nodal-information publishes (§6.1) land in the same election
state the simulator uses.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro import obs
from repro.errors import ProtocolError, ServiceError
from repro.net.codec import (
    ERR_NOT_SERVING,
    PAIR_DTYPE,
    ROLE_SURROGATE,
    CloseSetQuery,
    CloseSetReply,
    ErrorFrame,
    Join,
    JoinOk,
    Message,
    NodalPublish,
    Ping,
    Pong,
    pairs_table,
)
from repro.net.transport import Transport
from repro.service.node import ServiceNode
from repro.service.world import ServiceWorld
from repro.topology.population import NodalInfo
from repro.worldarrays.closesets import CloseClusterSet

__all__ = ["SurrogateServer", "close_set_to_pairs", "pairs_to_close_set"]


def close_set_to_pairs(close_set) -> np.ndarray:
    """Wire form of a close cluster set: a :data:`PAIR_DTYPE` table of
    (cluster, rtt) entries, cluster ids strictly ascending."""
    clusters, rtt_ms = close_set.rows()
    table = np.empty(len(clusters), dtype=PAIR_DTYPE)
    table["cluster"] = clusters
    table["rtt_ms"] = rtt_ms
    return table


def pairs_to_close_set(owner: int, pairs, cluster_count: int) -> CloseClusterSet:
    """Rebuild a usable close set from its wire pairs.

    Only membership and RTT travel (all select-close-relay needs);
    loss and hop depth are measurement-side detail that stays with the
    owning surrogate (zeros here).  ``pairs`` is a wire table (or any
    ``(cluster, rtt)`` pairs the codec accepts) and must be what
    :func:`close_set_to_pairs` emits — strictly ascending cluster ids
    (the set's own constructor checks that) below the world's
    ``cluster_count``, finite non-negative RTTs — and anything else
    raises :class:`ProtocolError`.  Selection sizes a table by the
    largest member id, so the id bound keeps that size the world's, not
    the sender's.
    """
    table = pairs_table(pairs)
    if np.any(table["cluster"] >= cluster_count):
        raise ProtocolError(f"close set of {owner}: member id beyond {cluster_count} clusters")
    rtt_ms = table["rtt_ms"].astype(np.float64)
    if not np.all(np.isfinite(rtt_ms) & (rtt_ms >= 0.0)):
        raise ProtocolError(f"close set of {owner}: negative or non-finite RTT")
    unmeasured = np.zeros(len(table))
    return CloseClusterSet(owner, table["cluster"], rtt_ms, unmeasured, unmeasured)


class SurrogateServer(ServiceNode):
    """Serves one cluster's close set over the wire."""

    def __init__(
        self,
        world: ServiceWorld,
        cluster: int,
        transport: Transport,
        bootstrap_addr: str,
    ) -> None:
        super().__init__(transport, name=f"surrogate-{cluster}")
        self._world = world
        self.cluster = cluster
        self.ip = world.surrogate_ip(cluster)
        self._bootstrap_addr = bootstrap_addr
        self.queries_served = 0
        self.publishes = 0
        self.handle(CloseSetQuery, self._on_close_set_query)
        self.handle(NodalPublish, self._on_nodal_publish)
        self.handle(Ping, self._on_ping)

    async def register(self, timeout_ms: float = 2_000.0) -> JoinOk:
        """Announce this daemon to the bootstrap as its cluster's server."""
        reply = await self.transport.request(
            self._bootstrap_addr,
            Join(
                ip=self.ip,
                role=ROLE_SURROGATE,
                cluster=self.cluster,
                wire_addr=self.address,
            ),
            timeout_ms=timeout_ms,
        )
        if not isinstance(reply, JoinOk):
            raise ServiceError(f"surrogate join answered with {reply!r}")
        return reply

    async def _on_close_set_query(
        self, sender: str, message: CloseSetQuery
    ) -> Message:
        wanted = message.cluster if message.cluster >= 0 else self.cluster
        if wanted != self.cluster:
            return ErrorFrame(
                code=ERR_NOT_SERVING,
                detail=f"surrogate serves cluster {self.cluster}, not {wanted}",
            )
        close_set = self._world.close_set(self.cluster)
        self.queries_served += 1
        obs.counter("service.close_set_queries").inc()
        return CloseSetReply(
            owner=self.cluster, entries=close_set_to_pairs(close_set)
        )

    async def _on_nodal_publish(
        self, sender: str, message: NodalPublish
    ) -> Optional[Message]:
        surrogate = self._world.system.surrogate(self.cluster)
        surrogate.accept_nodal_info(
            message.ip,
            NodalInfo(
                bandwidth_kbps=message.bandwidth_kbps,
                uptime_hours=message.uptime_hours,
                cpu_score=message.cpu_score,
            ),
        )
        self.publishes += 1
        obs.counter("service.nodal_publishes").inc()
        return None  # oneway: no response expected

    async def _on_ping(self, sender: str, message: Ping) -> Message:
        return Pong(token=message.token)
