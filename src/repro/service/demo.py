"""A whole ASAP overlay in one process: the service-layer demo harness.

This module is where overlay daemons are assembled.  :func:`start_servers`
starts the server half — the bootstrap shard(s), then one registered
:class:`SurrogateServer` per populated cluster — and :func:`start_agents`
starts and joins the host agents of a set of calling pairs plus a pool
of relay-capable agents.  ``run_demo``, ``repro serve``, ``repro dial``
and the dial-core tests all build their overlays with these two.

``run_demo`` runs both halves and places the requested number of
*latent* calls (direct path over the latency threshold — the calls
where relay selection actually matters) concurrently.  Two substrates,
same daemons, same bytes:

- ``transport="loopback"`` — virtual clock, fully deterministic: the
  same ``(scale, seed)`` produces byte-identical ``traces.jsonl`` runs
  in milliseconds of wall time;
- ``transport="tcp"`` — real asyncio sockets on 127.0.0.1, shaped with
  the scenario's RTTs (:func:`shaped_tcp`) so the latency threshold and
  relay decisions behave as in the simulated world.

Both wires pay :meth:`ServiceWorld.wire_rtt_ms` between the addresses
the world models; the loopback hub charges 1.0 ms between any others,
and shaped TCP leaves them unshaped.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Union

from repro import obs
from repro.control.sharding import BootstrapRouter, HashRing
from repro.core.relay_selection import ranked_relay_clusters
from repro.core.dial import DialResult, RuntimePolicy
from repro.errors import ServiceError
from repro.media.frames import trace_from_wire
from repro.net.shaped import ShapedTransport
from repro.net.loopback import LoopbackHub, LoopbackTransport
from repro.net.sockets import TcpTransport
from repro.net.transport import Transport
from repro.netaddr import IPv4Address
from repro.service.bootstrap import BootstrapServer
from repro.service.host import HostAgent
from repro.service.surrogate import SurrogateServer
from repro.service.world import ServiceWorld

__all__ = [
    "DemoResult",
    "Servers",
    "loopback_hub",
    "run_demo",
    "shaped_tcp",
    "start_agents",
    "start_servers",
]

#: Relay-capable agents spun up per candidate cluster.
_RELAYS_PER_CLUSTER = 2
#: Candidate clusters (per call pair) that get relay agents.
_CANDIDATE_CLUSTERS_PER_PAIR = 2
#: What the loopback wire charges between addresses the world does not
#: model (extra bootstrap shards): a nominal localhost-ish round trip.
_UNMODELED_RTT_MS = 1.0

#: Builds the transport a daemon listens on, from its address key: the
#: dotted scenario IP it serves (``"<bootstrap ip>+<n>"`` for shard n > 0).
TransportFactory = Callable[[str], Transport]


@dataclass
class DemoResult:
    """What one demo run produced, for reporting and assertions."""

    transport: str
    calls: List[DialResult] = field(default_factory=list)
    surrogate_count: int = 0
    host_count: int = 0
    shard_count: int = 1
    #: Joins each bootstrap shard served for clusters another shard
    #: owns — all zeros while every shard is up (the router routes).
    foreign_joins: List[int] = field(default_factory=list)
    #: media frames each callee actually received, keyed by call index.
    media_delivered: List[int] = field(default_factory=list)
    #: with ``media_frames=True``: per call index, the callee's
    #: {call_id: ReceivedTrace} reconstructed from MediaFrame receipts.
    frame_traces: List[Dict] = field(default_factory=list)
    #: final virtual time of the loopback hub (0.0 on tcp).
    virtual_ms: float = 0.0
    wire_deliveries: int = 0
    wire_drops: int = 0

    @property
    def completed(self) -> int:
        return sum(1 for call in self.calls if call.outcome == "completed")

    @property
    def relayed(self) -> int:
        return sum(1 for call in self.calls if call.path == "relay")

    def best_mos(self) -> Optional[float]:
        scores = [call.mos for call in self.calls if call.mos is not None]
        return max(scores) if scores else None


@dataclass
class Servers:
    """The server half of a running overlay."""

    bootstraps: List[BootstrapServer]
    #: cluster index -> its registered surrogate daemon.
    surrogates: Dict[int, SurrogateServer]
    #: What host agents join through: shard 0's address, or the router
    #: over every shard.
    router: Union[str, BootstrapRouter]

    @property
    def address(self) -> str:
        return self.bootstraps[0].address

    async def close(self) -> None:
        for server in self.surrogates.values():
            await server.close()
        for server in self.bootstraps:
            await server.close()


def loopback_hub(world: ServiceWorld) -> LoopbackHub:
    """A virtual-clock wire paying the world's host-to-host RTTs."""
    rtt_ms = world.wire_rtt_ms
    return LoopbackHub(latency_ms_fn=lambda src, dst: rtt_ms(src, dst, _UNMODELED_RTT_MS))


class _RegisteringShaped(ShapedTransport):
    """A shaped TCP transport that files its bound address under its key."""

    def __init__(self, world: ServiceWorld, key: str, key_at: Dict[str, str]) -> None:
        super().__init__(TcpTransport(), self._rtt_ms)
        self._world = world
        self._key = key
        self._key_at = key_at

    async def start(self) -> None:
        await super().start()
        self._key_at[self.local_address] = self._key

    def _rtt_ms(self, dst_addr: str) -> Optional[float]:
        return self._world.wire_rtt_ms(self._key, self._key_at.get(dst_addr))


def shaped_tcp(world: ServiceWorld) -> TransportFactory:
    """A factory of localhost TCP transports shaped by the world's RTTs.

    Socket ports are kernel-assigned, so each transport files the
    address it bound under its key as it starts; a request to an address
    no transport of this factory filed (a daemon in another process)
    passes unshaped.
    """
    key_at: Dict[str, str] = {}
    return lambda key: _RegisteringShaped(world, key, key_at)


async def start_servers(
    world: ServiceWorld, make_transport: TransportFactory, shards: int = 1
) -> Servers:
    """Start the bootstrap shard(s), then one surrogate daemon per
    populated cluster, each registered with the shard owning its cluster."""
    # Shard 0 keeps the single-shard address (and the plain "bootstrap"
    # node name) so shards=1 runs are byte-identical to the pre-sharding
    # harness.
    ring = HashRing(shards) if shards > 1 else None
    bootstraps: List[BootstrapServer] = []
    for shard in range(shards):
        key = str(world.bootstrap_host.ip) + (f"+{shard}" if shard else "")
        server = BootstrapServer(world, make_transport(key), shard_id=shard, ring=ring)
        await server.start()
        bootstraps.append(server)
    surrogates: Dict[int, SurrogateServer] = {}
    for cluster in world.populated_clusters():
        owner = bootstraps[ring.owner(cluster)] if ring is not None else bootstraps[0]
        server = SurrogateServer(
            world, cluster, make_transport(str(world.surrogate_ip(cluster))), owner.address
        )
        await server.start()
        await server.register()
        surrogates[cluster] = server
    router = (
        BootstrapRouter(ring, [s.address for s in bootstraps], world.cluster_of_ip)
        if ring is not None
        else bootstraps[0].address
    )
    return Servers(bootstraps, surrogates, router)


def _relay_pool_ips(
    world: ServiceWorld, pairs: List, exclude: set
) -> List[IPv4Address]:
    """Hosts worth running as relay agents: members of the best
    candidate clusters of each call pair."""
    ips: List[IPv4Address] = []
    seen = set(exclude) | world.surrogate_ips()
    for caller, callee in pairs:
        session = world.system.call(caller, callee)
        for _, cluster in ranked_relay_clusters(session.selection)[
            :_CANDIDATE_CLUSTERS_PER_PAIR
        ]:
            for host in world.hosts_in_cluster(cluster)[:_RELAYS_PER_CLUSTER]:
                if host.ip not in seen:
                    seen.add(host.ip)
                    ips.append(host.ip)
    return ips


async def start_agents(
    world: ServiceWorld,
    make_transport: TransportFactory,
    bootstrap: Union[str, BootstrapRouter],
    pairs: List,
    policy: Optional[RuntimePolicy] = None,
) -> Dict[IPv4Address, HostAgent]:
    """Start a host agent for every endpoint of ``pairs`` and for their
    relay pool, then join them all in address order; closes them and
    raises :class:`ServiceError` when one cannot join."""
    endpoint_ips = {ip for pair in pairs for ip in pair}
    agents: Dict[IPv4Address, HostAgent] = {}
    for ip in list(endpoint_ips) + _relay_pool_ips(world, pairs, endpoint_ips):
        agent = HostAgent(world, ip, make_transport(str(ip)), bootstrap, policy)
        await agent.start()
        agents[ip] = agent
    for ip in sorted(agents, key=lambda a: a.value):
        if not await agents[ip].join():
            for agent in agents.values():
                await agent.close()
            raise ServiceError(f"agent {ip} failed to join the overlay")
    return agents


async def _demo_main(
    world: ServiceWorld,
    make_transport: TransportFactory,
    pairs: List,
    media_ms: float,
    policy: RuntimePolicy,
    result: DemoResult,
    shards: int,
) -> List[Dict]:
    servers = await start_servers(world, make_transport, shards)
    result.shard_count = shards
    result.surrogate_count = len(servers.surrogates)
    agents = await start_agents(world, make_transport, servers.router, pairs, policy)
    result.host_count = len(agents)

    dials = [agents[caller].dial(callee, media_ms=media_ms) for caller, callee in pairs]
    result.calls = await agents[pairs[0][0]].transport.gather(*dials)
    result.media_delivered = [
        sum(agents[callee].media_received.values()) for _, callee in pairs
    ]
    # Each callee's frame receipts as the dials returned, copied: frames
    # still in flight keep landing until the agents close.
    receipts = [
        {call_id: list(got) for call_id, got in agents[callee].frame_traces.items()}
        for _, callee in pairs
    ]
    result.foreign_joins = [server.foreign_joins for server in servers.bootstraps]

    for agent in agents.values():
        await agent.close()
    await servers.close()
    return receipts


def run_demo(
    world: Optional[ServiceWorld] = None,
    scale: str = "tiny",
    seed: int = 0,
    calls: int = 1,
    media_ms: float = 2_000.0,
    transport: str = "loopback",
    policy: Optional[RuntimePolicy] = None,
    workers: Optional[int] = None,
    cache_dir: Optional[str] = None,
    shards: int = 1,
    media_frames: bool = False,
) -> DemoResult:
    """Build a world, run a full overlay in-process, place latent calls.

    Voice is always real frames; ``media_frames`` only decides whether
    the callees' received traces are rebuilt into ``frame_traces``.
    """
    if world is None:
        world = ServiceWorld.from_scale(scale, seed, workers=workers, cache_dir=cache_dir)
    if policy is None:
        policy = RuntimePolicy()
    pairs = world.latent_pairs(calls)
    if not pairs:
        raise ServiceError(
            f"no latent call pairs with relay candidates at scale={scale} seed={seed}"
        )
    result = DemoResult(transport=transport)

    if transport == "loopback":
        hub = loopback_hub(world)
        make = lambda addr: LoopbackTransport(hub, addr)
        obs.tracer().clock = lambda: hub.now_ms
        main = _demo_main(world, make, pairs, media_ms, policy, result, shards)
        receipts = asyncio.run(hub.run(main))
        result.virtual_ms = hub.now_ms
        result.wire_deliveries = hub.deliveries
        result.wire_drops = hub.drops
    elif transport == "tcp":
        # Every node starts before any join or dial, so the shaping
        # registry is complete by the time any RTT matters.
        main = _demo_main(world, shaped_tcp(world), pairs, media_ms, policy, result, shards)
        receipts = asyncio.run(main)
    else:
        raise ServiceError(f"unknown transport {transport!r} (loopback|tcp)")
    if media_frames:
        result.frame_traces = [
            {call_id: trace_from_wire(call_id, got[call_id]) for call_id in sorted(got)}
            for got in receipts
        ]
    return result
