"""A whole ASAP overlay in one process: the service-layer demo harness.

``run_demo`` spins up one bootstrap, a surrogate daemon per populated
cluster, host agents for the calling pairs plus a pool of relay-capable
agents, joins everyone, and places the requested number of *latent*
calls (direct path over the latency threshold — the calls where relay
selection actually matters) concurrently.

Two substrates, same daemons, same bytes:

- ``transport="loopback"`` — virtual clock, fully deterministic: the
  same ``(scale, seed)`` produces byte-identical ``traces.jsonl`` runs
  in milliseconds of wall time;
- ``transport="tcp"`` — real asyncio sockets on 127.0.0.1, with
  :class:`repro.net.shaped.ShapedTransport` injecting the scenario's
  RTTs so the latency threshold and relay decisions behave as in the
  simulated world.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro import obs
from repro.control.sharding import BootstrapRouter, HashRing
from repro.core.relay_selection import ranked_relay_clusters
from repro.core.dial import DialResult, RuntimePolicy
from repro.errors import ServiceError
from repro.net.shaped import ShapedTransport
from repro.net.loopback import LoopbackHub, LoopbackTransport
from repro.net.sockets import TcpTransport
from repro.net.transport import Transport
from repro.netaddr import IPv4Address
from repro.service.bootstrap import BootstrapServer
from repro.service.host import HostAgent
from repro.service.surrogate import SurrogateServer
from repro.service.world import ServiceWorld

__all__ = ["DemoResult", "run_demo"]

#: Relay-capable agents spun up per candidate cluster.
_RELAYS_PER_CLUSTER = 2
#: Candidate clusters (per call pair) that get relay agents.
_CANDIDATE_CLUSTERS_PER_PAIR = 2


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


async def _demo_main(
    world: ServiceWorld,
    make_transport: Callable[[str], Transport],
    pairs: List,
    media_ms: float,
    policy: RuntimePolicy,
    result: DemoResult,
    shards: int = 1,
    media_frames: bool = False,
) -> None:
    # One bootstrap per shard; shard 0 keeps the single-shard address
    # (and the plain "bootstrap" node name) so shards=1 runs are
    # byte-identical to the pre-sharding harness.
    ring = HashRing(shards) if shards > 1 else None
    bootstraps: List[BootstrapServer] = []
    for shard in range(shards):
        addr_key = (
            str(world.bootstrap_host.ip)
            if shard == 0
            else f"{world.bootstrap_host.ip}+{shard}"
        )
        server = BootstrapServer(
            world, make_transport(addr_key), shard_id=shard, ring=ring
        )
        await server.start()
        bootstraps.append(server)
    result.shard_count = shards
    router = (
        BootstrapRouter(ring, [s.address for s in bootstraps], world.cluster_of_ip)
        if ring is not None
        else None
    )

    def bootstrap_for(cluster: int) -> BootstrapServer:
        return bootstraps[ring.owner(cluster)] if ring is not None else bootstraps[0]

    surrogates: List[SurrogateServer] = []
    for cluster in world.populated_clusters():
        server = SurrogateServer(
            world,
            cluster,
            make_transport(str(world.surrogate_ip(cluster))),
            bootstrap_for(cluster).address,
        )
        await server.start()
        await server.register()
        surrogates.append(server)
    result.surrogate_count = len(surrogates)

    endpoint_ips = {ip for pair in pairs for ip in pair}
    relay_ips = _relay_pool_ips(world, pairs, endpoint_ips)
    agents: Dict[IPv4Address, HostAgent] = {}
    for ip in list(endpoint_ips) + relay_ips:
        agent = HostAgent(
            world,
            ip,
            make_transport(str(ip)),
            router if router is not None else bootstraps[0].address,
            policy,
        )
        await agent.start()
        agents[ip] = agent
    result.host_count = len(agents)

    for ip in sorted(agents, key=lambda a: a.value):
        if not await agents[ip].join():
            raise ServiceError(f"agent {ip} failed to join the overlay")

    callers = [agents[caller] for caller, _ in pairs]
    dials = [
        agents[caller].dial(callee, media_ms=media_ms, media_frames=media_frames)
        for caller, callee in pairs
    ]
    result.calls = await callers[0].transport.gather(*dials)

    for index, (_, callee) in enumerate(pairs):
        received = sum(agents[callee].media_received.values())
        result.media_delivered.append(received)
        if media_frames:
            agent = agents[callee]
            traces = {
                call_id: agent.received_trace(call_id)
                for call_id in sorted(agent.frame_traces)
            }
            result.frame_traces.append(traces)

    result.foreign_joins = [server.foreign_joins for server in bootstraps]

    for agent in agents.values():
        await agent.close()
    for server in surrogates:
        await server.close()
    for server in bootstraps:
        await server.close()


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
    """Build a world, run a full overlay in-process, place latent calls."""
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
        host_of_addr = {str(world.bootstrap_host.ip): world.bootstrap_host}
        for host in (world.host(ip) for ip in world.scenario.population.ips()):
            host_of_addr[str(host.ip)] = host

        def latency_ms(src: str, dst: str) -> Optional[float]:
            a, b = host_of_addr.get(src), host_of_addr.get(dst)
            if a is None or b is None:
                return 1.0  # unmodeled pair: nominal localhost-ish delay
            return world.scenario.latency.host_rtt_ms(a, b)

        hub = LoopbackHub(latency_ms_fn=latency_ms)
        make = lambda addr: LoopbackTransport(hub, addr)
        obs.tracer().clock = lambda: hub.now_ms
        asyncio.run(
            hub.run(
                _demo_main(
                    world, make, pairs, media_ms, policy, result, shards, media_frames
                )
            )
        )
        result.virtual_ms = hub.now_ms
        result.wire_deliveries = hub.deliveries
        result.wire_drops = hub.drops
    elif transport == "tcp":
        # Socket addresses are dynamic (kernel-assigned ports), so the
        # shaping registry maps them back to scenario IPs as each
        # transport binds.  Every node starts before any join or dial,
        # so the registry is complete by the time any RTT matters.
        addr_to_ip: Dict[str, str] = {}
        ip_of = {str(world.bootstrap_host.ip): world.bootstrap_host}
        for host in (world.host(ip) for ip in world.scenario.population.ips()):
            ip_of[str(host.ip)] = host

        class _RegisteringShaped(ShapedTransport):
            def __init__(self, inner: Transport, ip_key: str) -> None:
                super().__init__(inner, rtt_ms_of=self._lookup)
                self._ip_key = ip_key

            async def start(self) -> None:
                await super().start()
                addr_to_ip[self.local_address] = self._ip_key

            def _lookup(self, dst_addr: str) -> Optional[float]:
                dst_key = addr_to_ip.get(dst_addr)
                if dst_key is None:
                    return None
                a, b = ip_of.get(self._ip_key), ip_of.get(dst_key)
                if a is None or b is None:
                    return None
                return world.scenario.latency.host_rtt_ms(a, b)

        make = lambda addr_key: _RegisteringShaped(TcpTransport(), addr_key)
        asyncio.run(
            _demo_main(
                world, make, pairs, media_ms, policy, result, shards, media_frames
            )
        )
    else:
        raise ServiceError(f"unknown transport {transport!r} (loopback|tcp)")
    return result
