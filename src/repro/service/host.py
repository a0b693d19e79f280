"""The host-agent daemon: an ASAP end host on the wire.

One :class:`HostAgent` is one end host.  Passively it answers pings,
forwards close-set queries to its surrogate (the peer leg of the
close-set exchange), admits calls, relays media for calls that picked
it, acks keepalives and drops relay state on ``Bye``.  Actively,
:meth:`HostAgent.join` and :meth:`HostAgent.dial` run the protocol's one
call flow (:mod:`repro.core.dial`, paper Fig. 8) — the flow the
simulated runtime runs — with the agent as its port over real frames:

- an end host is located by a directory ``Resolve`` through the
  bootstrap shards, so only IPs with a running agent are ever dialed;
- close sets arrive as decoded ``CloseSetReply`` frames; selection
  counts every member of a cluster;
- both close-set legs retry the one address they have (the agent's
  surrogate; the callee), and relay candidates are a cluster's hosts in
  cluster order;
- voice is timestamped ``MediaFrame``\\ s at the codec's packetization,
  which the callee keeps as a scoreable received-frame trace.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, List, Optional, Tuple, Union

from repro import obs
from repro.control.sharding import BootstrapRouter
from repro.core.dial import (
    CATEGORY,
    CLOSE_SET_TIMEOUT_MS,
    PING_TIMEOUT_MS,
    DialResult,
    JoinRecord,
    MediaSessionRecord,
    run_dial,
    run_join,
)
from repro.errors import RemoteError, ServiceError, TransportError, TransportTimeout
from repro.media.frames import CODEC_WIRE_IDS
from repro.net.codec import (
    Bye,
    CallAccept,
    CallSetup,
    CloseSetQuery,
    CloseSetReply,
    ErrorFrame,
    Keepalive,
    KeepaliveAck,
    Leave,
    MediaFrame,
    Message,
    Ping,
    Pong,
    RelayOk,
    RelaySetup,
    Resolve,
    ResolveOk,
)
from repro.net.transport import Transport
from repro.netaddr import IPv4Address
from repro.service.node import ServiceNode
from repro.service.surrogate import pairs_to_close_set
from repro.service.world import ServiceWorld
from repro.voip.codecs import G729A_VAD

__all__ = ["DialResult", "HostAgent", "media_frame_budget"]

_MEDIA_PAYLOAD = bytes(20)  # one compressed voice frame's worth

#: Exchanges with the call's far-end hosts (ping, admission, relay
#: set-up) tag their ``net.request`` span with the peer's AS.
_PEER_TAGGED = (Ping, CallSetup, RelaySetup)


def media_frame_budget(media_ms: float) -> int:
    """Frames one call's voice sends over ``media_ms``: one per
    packetization interval — the bound a receiver holds seqs to."""
    return math.ceil(media_ms / G729A_VAD.packet_interval_ms())


class _RelayState:
    """Forwarding entry a relay keeps per call."""

    def __init__(self, caller_ip: IPv4Address, callee_ip: IPv4Address, callee_addr: str):
        self.caller_ip = caller_ip
        self.callee_ip = callee_ip
        self.callee_addr = callee_addr
        self.forwarded = 0


class HostAgent(ServiceNode):
    """An end host: joins the overlay, places and relays calls."""

    namespace = "service"

    def __init__(
        self,
        world: ServiceWorld,
        ip: IPv4Address,
        transport: Transport,
        bootstrap_addr: Union[str, BootstrapRouter],
    ) -> None:
        super().__init__(transport, name=f"host-{ip}")
        self._world = world
        self._cluster_count = world.scenario.matrix_view().count
        self.config = world.config
        self.ip = ip
        self.host = world.host(ip)
        # A plain address is the degenerate single-shard control plane;
        # the router generalizes every bootstrap exchange to a sharded
        # one without changing the single-shard message sequence.
        self._router = (
            bootstrap_addr
            if isinstance(bootstrap_addr, BootstrapRouter)
            else BootstrapRouter.single(bootstrap_addr)
        )
        self._bootstrap_addr = self._router.owner_addr(ip)
        self._joined_addr: Optional[str] = None
        self.cluster: Optional[int] = None
        self.surrogate_ip: Optional[IPv4Address] = None
        self.surrogate_addr: Optional[str] = None
        self.joined = False
        self._call_seq = itertools.count(1)
        #: wire address -> AS of the end host located there.
        self._peer_as: Dict[str, int] = {}
        self._relaying: Dict[int, _RelayState] = {}
        #: call_id -> media frames received as the callee.
        self.media_received: Dict[int, int] = {}
        #: call_id -> raw MediaFrame receipts as the callee:
        #: (seq, sender timestamp_ms, arrival now_ms, codec wire id), what
        #: :func:`repro.media.frames.trace_from_wire` scores.
        self.frame_traces: Dict[int, List[Tuple[int, float, float, int]]] = {}
        self.relayed_calls = 0
        self.handle(Ping, self._on_ping)
        self.handle(CloseSetQuery, self._on_close_set_query)
        self.handle(CallSetup, self._on_call_setup)
        self.handle(RelaySetup, self._on_relay_setup)
        self.handle(MediaFrame, self._on_media_frame)
        self.handle(Keepalive, self._on_keepalive)
        self.handle(Bye, self._on_bye)

    # -- inbound -----------------------------------------------------------

    async def _on_ping(self, sender: str, message: Ping) -> Message:
        return Pong(token=message.token)

    async def _on_close_set_query(self, sender: str, message: CloseSetQuery) -> Message:
        """The peer leg (§6.4): a caller asks us for *our* close set —
        we fetch it from our surrogate and relay the answer back."""
        if self.surrogate_addr is None:
            raise ServiceError(f"host {self.ip} has not joined")
        return await self.transport.request(
            self.surrogate_addr,
            CloseSetQuery(cluster=-1, requester_ip=self.ip),
            timeout_ms=CLOSE_SET_TIMEOUT_MS,
        )

    async def _on_call_setup(self, sender: str, message: CallSetup) -> Message:
        self.media_received.setdefault(message.call_id, 0)
        return CallAccept(call_id=message.call_id, accept=1)

    async def _on_relay_setup(self, sender: str, message: RelaySetup) -> Message:
        """Accept relay duty: resolve the callee and start forwarding."""
        callee_addr = await self.locate(message.callee_ip)
        if callee_addr is None:
            raise ServiceError(f"relay cannot resolve callee {message.callee_ip}")
        self._relaying[message.call_id] = _RelayState(
            message.caller_ip, message.callee_ip, callee_addr
        )
        self.relayed_calls += 1
        obs.counter("service.relays_accepted").inc()
        return RelayOk(call_id=message.call_id)

    async def _on_media_frame(self, sender: str, message: MediaFrame) -> None:
        """Voice frames: relays forward, the callee records a scoreable
        receipt per frame."""
        call_id = message.call_id
        state = self._relaying.get(call_id)
        if state is not None:
            state.forwarded += 1
            obs.counter("service.media_forwarded").inc()
            await self._transport.send(state.callee_addr, message)
            return None
        if call_id in self.media_received:
            self.media_received[call_id] += 1
            self.frame_traces.setdefault(call_id, []).append(
                (message.seq, message.timestamp_ms, self._transport.now_ms(), message.codec)
            )
        return None

    async def _on_keepalive(self, sender: str, message: Keepalive) -> Message:
        return KeepaliveAck(call_id=message.call_id, seq=message.seq)

    async def _on_bye(self, sender: str, message: Bye) -> None:
        self._relaying.pop(message.call_id, None)
        return None

    # -- join (§6.1) and dial (§6.4, §6.5) ---------------------------------

    async def join(self) -> bool:
        """Register with the bootstrap; learn cluster + surrogate."""
        joined = await run_join(self, JoinRecord(ip=self.ip))
        if joined is None:
            return False
        self._joined_addr, reply = joined
        self.cluster = reply.cluster
        self.surrogate_ip = reply.surrogate_ip
        self.surrogate_addr = reply.surrogate_addr
        self.joined = True
        return True

    async def leave(self) -> None:
        """Deregister (best-effort, oneway) from the shard we joined
        through — crashed hosts never send this; the TTL sweep is the
        directory's real garbage collector."""
        if not self.joined:
            return
        addr = self._joined_addr or self._bootstrap_addr
        await self.transport.send(addr, Leave(ip=self.ip))
        obs.counter("service.hosts_left").inc()
        self.joined = False
        self._joined_addr = None

    async def dial(self, callee_ip: IPv4Address, media_ms: Optional[float] = None) -> DialResult:
        """Place one call (:func:`repro.core.dial.run_dial`)."""
        if not self.joined:
            raise ServiceError(f"host {self.ip} must join before dialing")
        call = DialResult(
            caller=self.ip,
            callee=callee_ip,
            call_id=(self.ip.value << 16) | next(self._call_seq),
        )
        return await run_dial(self, call, self._world.host(callee_ip), media_ms)

    # -- the call flow's port (see repro.core.dial) --------------------------

    async def sleep_ms(self, ms: float) -> None:
        await self.transport.sleep_ms(ms)

    async def gather(self, *coros) -> list:
        return await self.transport.gather(*coros)

    async def send(self, addr: str, message: Message) -> None:
        await self.transport.send(addr, message)

    async def exchange(self, span, addr: str, message: Message, timeout_ms: float):
        """One traced round trip: a ``net.request`` child span covers
        the exchange, exactly like the simulator's network layer."""
        start = self.now_ms()
        net = span.child(
            "net.request",
            start,
            category=CATEGORY[type(message)],
            src_as=self.host.asn,
            dst_as=self._peer_as.get(addr) if isinstance(message, _PEER_TAGGED) else None,
        )
        # Ride the span's identity on the request frame (codec trace
        # extension) so the peer's handler span joins this trace even
        # across a real process boundary.
        trace = (net.trace_id, net.span_id) if net else None
        try:
            reply = await self.transport.request(addr, message, timeout_ms, trace=trace)
        except TransportTimeout:
            obs.counter("net.timeouts").inc()
            net.end(self.now_ms(), outcome="timeout", dropped="timeout")
            return None
        except RemoteError as exc:
            net.end(self.now_ms(), outcome="error", code=exc.code)
            return ErrorFrame(code=exc.code, detail=exc.detail)
        net.end(self.now_ms(), outcome="response", rtt_ms=round(self.now_ms() - start, 3))
        return reply

    async def locate(self, ip: IPv4Address) -> Optional[str]:
        """Directory lookup; None when no running agent registered it.

        Walks the target's shard preference chain: a host that joined
        through a failover shard (its owner was down) is registered
        there, so the lookup must look past a dead or empty owner."""
        for addr in self._router.addrs_for(ip):
            try:
                reply = await self.transport.request(
                    addr,
                    Resolve(ip=ip),
                    timeout_ms=PING_TIMEOUT_MS,
                )
            except TransportError:
                continue
            if isinstance(reply, ResolveOk) and reply.found:
                self._peer_as[reply.addr] = self._world.host(ip).asn
                return reply.addr
        return None

    def bootstrap(self, attempt: int) -> str:
        # Retries rotate through the shard preference chain: attempt 0
        # hits the owner, later attempts its ring successors.
        addrs = self._router.addrs_for(self.ip)
        return addrs[attempt % len(addrs)]

    def publish_target(self, reply) -> str:
        return reply.surrogate_addr

    def leg_target(self, call: DialResult, leg: str, attempt: int, callee: str):
        if leg == "own":
            return self.surrogate_addr, self.surrogate_ip
        world = self._world
        return callee, world.surrogate_ip(world.cluster_of_ip(call.callee))

    async def surrogate_target(self, cluster: int):
        surrogate_ip = self._world.surrogate_ip(cluster)
        addr = await self.locate(surrogate_ip)
        return None if addr is None else (addr, surrogate_ip)

    def close_set(self, reply):
        if not isinstance(reply, CloseSetReply):
            return None
        return pairs_to_close_set(reply.owner, reply.entries, self._cluster_count)

    @property
    def cluster_sizes(self):
        return self._world.system.online_sizes

    def relay_hosts(self, cluster: int):
        return self._world.hosts_in_cluster(cluster)

    async def voice(self, call: DialResult, media: MediaSessionRecord) -> None:
        """Voice toward ``media.target`` for the media's duration: one
        timestamped codec frame per packetization interval."""
        interval_ms = G729A_VAD.packet_interval_ms()
        codec_id = CODEC_WIRE_IDS[G729A_VAD.name]
        transport = self._transport
        send, sleep_ms, now_ms = transport.send, transport.sleep_ms, transport.now_ms
        call_id = call.call_id
        for seq in range(media_frame_budget(media.duration_ms)):
            if media.outcome != "active":
                return
            message = MediaFrame(
                call_id=call_id,
                seq=seq,
                timestamp_ms=now_ms(),
                codec=codec_id,
                payload=_MEDIA_PAYLOAD,
            )
            # Read each frame: a relay failover re-targets the media.
            await send(media.target, message)
            media.packets += 1
            await sleep_ms(interval_ms)

    def finish_media(self, call: DialResult, media: MediaSessionRecord) -> None:
        outcome = "dropped" if media.outcome == "dropped" else "completed"
        media.trace.end(self.now_ms(), outcome=outcome, packets=media.packets)
