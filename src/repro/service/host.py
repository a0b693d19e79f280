"""The host-agent daemon: an ASAP end host on the wire.

One :class:`HostAgent` is one end host.  Passively it answers pings,
forwards close-set queries to its surrogate (the peer leg of the
close-set exchange), relays media for calls that picked it, and acks
keepalives.  Actively, :meth:`dial` runs the paper's call-setup
pipeline (Fig. 8) over real frames:

1. ping the callee — direct path good enough? (§6.4)
2. close-set exchange — own surrogate + callee's, concurrently (§6.4)
3. select-close-relay — locally, from the fetched sets (Fig. 10),
   fetching two-hop candidate sets over the wire when OS is thin
4. relay establishment — resolve candidates through the bootstrap
   directory, RELAY_SETUP the first live one
5. media — paced MEDIA frames through the relay, keepalive-guarded,
   with failover to the next candidate when the relay dies (§6.5)

Timeouts, retry budgets and backoff come from the simulator's
:class:`repro.core.runtime.RuntimePolicy`, and every stage emits the
simulator's trace-span vocabulary (``setup.ping``, ``setup.close_set``
with ``leg=own/peer``, ``setup.two_hop``, ``setup.relay_pick``,
``setup.done``, ``media``), so service traces and simulated traces
analyze identically.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro import obs
from repro.control.sharding import BootstrapRouter
from repro.core.close_cluster import CloseClusterSet
from repro.core.relay_selection import (
    RelaySelection,
    ranked_relay_clusters,
    select_one_hop,
    select_two_hop,
)
from repro.core.runtime import RuntimePolicy
from repro.errors import (
    ProtocolError,
    RemoteError,
    ServiceError,
    TransportError,
    TransportTimeout,
)
from repro.net.codec import (
    ROLE_HOST,
    Bye,
    CallAccept,
    CallSetup,
    CloseSetQuery,
    CloseSetReply,
    Join,
    JoinOk,
    Keepalive,
    KeepaliveAck,
    Leave,
    Media,
    MediaFrame,
    Message,
    NodalPublish,
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
from repro.voip.quality import mos_of_path

__all__ = ["DialResult", "HostAgent"]

#: Voice-frame pacing of the media loop (coarser than real 20 ms G.729
#: framing to keep packet counts CI-friendly; quality scoring uses the
#: path RTT, not the pacing).
MEDIA_PACKET_INTERVAL_MS = 200.0
_MEDIA_PAYLOAD = bytes(20)  # one compressed voice frame's worth

#: Relay-candidate hosts resolved per cluster before moving on.
_RELAY_TRIES_PER_CLUSTER = 4


@dataclass
class DialResult:
    """Everything one :meth:`HostAgent.dial` produced."""

    caller: IPv4Address
    callee: IPv4Address
    outcome: str = "pending"  # completed | degraded | failed
    failure_reason: Optional[str] = None
    path: Optional[str] = None  # direct | relay
    relay_ip: Optional[IPv4Address] = None
    relay_cluster: Optional[int] = None
    direct_rtt_ms: Optional[float] = None
    path_rtt_ms: Optional[float] = None
    setup_ms: Optional[float] = None
    selection_messages: int = 0
    media_packets: int = 0
    keepalives: int = 0
    failovers: int = 0
    mos: Optional[float] = None
    #: setup critical path: (stage, milliseconds), in execution order.
    steps: List[Tuple[str, float]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.outcome in ("completed", "degraded")


class _RelayState:
    """Forwarding entry a relay keeps per call."""

    def __init__(self, caller_ip: IPv4Address, callee_ip: IPv4Address, callee_addr: str):
        self.caller_ip = caller_ip
        self.callee_ip = callee_ip
        self.callee_addr = callee_addr
        self.forwarded = 0


class HostAgent(ServiceNode):
    """An end host: joins the overlay, places and relays calls."""

    def __init__(
        self,
        world: ServiceWorld,
        ip: IPv4Address,
        transport: Transport,
        bootstrap_addr: Union[str, BootstrapRouter],
        policy: Optional[RuntimePolicy] = None,
    ) -> None:
        super().__init__(transport, name=f"host-{ip}")
        self._world = world
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
        self._policy = policy if policy is not None else RuntimePolicy()
        self.cluster: Optional[int] = None
        self.surrogate_ip: Optional[IPv4Address] = None
        self.surrogate_addr: Optional[str] = None
        self.joined = False
        self._call_seq = itertools.count(1)
        self._ping_seq = itertools.count(1)
        self._relaying: Dict[int, _RelayState] = {}
        #: call_id -> media frames received as the callee.
        self.media_received: Dict[int, int] = {}
        #: call_id -> raw MediaFrame receipts as the callee:
        #: (seq, sender timestamp_ms, arrival now_ms, codec wire id).
        self.frame_traces: Dict[int, List[Tuple[int, float, float, int]]] = {}
        self.relayed_calls = 0
        self.handle(Ping, self._on_ping)
        self.handle(CloseSetQuery, self._on_close_set_query)
        self.handle(CallSetup, self._on_call_setup)
        self.handle(RelaySetup, self._on_relay_setup)
        self.handle(Media, self._on_media)
        self.handle(MediaFrame, self._on_media_frame)
        self.handle(Keepalive, self._on_keepalive)
        self.handle(Bye, self._on_bye)

    @property
    def policy(self) -> RuntimePolicy:
        return self._policy

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
            timeout_ms=self._policy.close_set_timeout_ms,
        )

    async def _on_call_setup(self, sender: str, message: CallSetup) -> Message:
        self.media_received.setdefault(message.call_id, 0)
        return CallAccept(call_id=message.call_id, accept=1)

    async def _on_relay_setup(self, sender: str, message: RelaySetup) -> Message:
        """Accept relay duty: resolve the callee and start forwarding."""
        callee_addr = await self._resolve(message.callee_ip)
        if callee_addr is None:
            raise ServiceError(f"relay cannot resolve callee {message.callee_ip}")
        self._relaying[message.call_id] = _RelayState(
            message.caller_ip, message.callee_ip, callee_addr
        )
        self.relayed_calls += 1
        obs.counter("service.relays_accepted").inc()
        return RelayOk(call_id=message.call_id)

    async def _on_media(self, sender: str, message: Media) -> None:
        state = self._relaying.get(message.call_id)
        if state is not None:
            state.forwarded += 1
            obs.counter("service.media_forwarded").inc()
            await self.transport.send(state.callee_addr, message)
            return None
        if message.call_id in self.media_received:
            self.media_received[message.call_id] += 1
        return None

    async def _on_media_frame(self, sender: str, message: MediaFrame) -> None:
        """Real codec frames (the `repro.media` plane): relays forward,
        the callee records a scoreable receipt per frame."""
        state = self._relaying.get(message.call_id)
        if state is not None:
            state.forwarded += 1
            obs.counter("service.media_forwarded").inc()
            await self.transport.send(state.callee_addr, message)
            return None
        if message.call_id in self.media_received:
            self.media_received[message.call_id] += 1
            self.frame_traces.setdefault(message.call_id, []).append(
                (message.seq, message.timestamp_ms, self.now_ms(), message.codec)
            )
        return None

    def received_trace(self, call_id: int, expected_frames: Optional[int] = None):
        """The callee's :class:`repro.media.frames.ReceivedTrace` for a
        call dialed with ``media_frames=True`` (gaps become losses)."""
        from repro.media.frames import trace_from_wire

        return trace_from_wire(
            call_id, self.frame_traces.get(call_id, []), expected_frames
        )

    async def _on_keepalive(self, sender: str, message: Keepalive) -> Message:
        return KeepaliveAck(call_id=message.call_id, seq=message.seq)

    async def _on_bye(self, sender: str, message: Bye) -> None:
        self._relaying.pop(message.call_id, None)
        return None

    # -- plumbing ----------------------------------------------------------

    async def _request(
        self,
        parent,
        addr: str,
        message: Message,
        timeout_ms: float,
        category: str,
        dst_as: Optional[int] = None,
    ) -> Message:
        """One traced round trip: a ``net.request`` child span covers
        the exchange, exactly like the simulator's network layer."""
        start = self.now_ms()
        net = parent.child(
            "net.request", start, category=category, src_as=self.host.asn, dst_as=dst_as
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
            raise
        except RemoteError as exc:
            net.end(self.now_ms(), outcome="error", code=exc.code)
            raise
        net.end(
            self.now_ms(), outcome="response", rtt_ms=round(self.now_ms() - start, 3)
        )
        return reply

    async def _resolve(self, ip: IPv4Address) -> Optional[str]:
        """Directory lookup; None when no running agent registered it.

        Walks the target's shard preference chain: a host that joined
        through a failover shard (its owner was down) is registered
        there, so the lookup must look past a dead or empty owner."""
        for addr in self._router.addrs_for(ip):
            try:
                reply = await self.transport.request(
                    addr,
                    Resolve(ip=ip),
                    timeout_ms=self._policy.ping_timeout_ms,
                )
            except TransportError:
                continue
            if isinstance(reply, ResolveOk) and reply.found:
                return reply.addr
        return None

    # -- join (§6.1) -------------------------------------------------------

    async def join(self) -> bool:
        """Register with the bootstrap; learn cluster + surrogate."""
        tracer = obs.tracer()
        tracer.clock = self.now_ms
        span = tracer.begin("join", self.now_ms(), ip=str(self.ip), asn=self.host.asn)
        message = Join(ip=self.ip, role=ROLE_HOST, cluster=-1, wire_addr=self.address)
        # Retries rotate through the shard preference chain: attempt 0
        # hits the owner, later attempts its ring successors (with one
        # shard every attempt lands on the same server, as before).
        addrs = self._router.addrs_for(self.ip)
        for attempt in range(self._policy.max_join_attempts):
            bootstrap_addr = addrs[attempt % len(addrs)]
            try:
                reply = await self._request(
                    span,
                    bootstrap_addr,
                    message,
                    self._policy.join_timeout_ms,
                    category="join-request",
                )
            except TransportTimeout:
                obs.counter("service.join_retries").inc()
                span.point("join.retry", self.now_ms(), attempt=attempt + 1)
                if attempt + 1 >= self._policy.max_join_attempts:
                    span.end(self.now_ms(), outcome="failed", reason="join-timeout")
                    return False
                await self.transport.sleep_ms(self._policy.backoff_ms(attempt))
                continue
            except RemoteError as exc:
                span.end(self.now_ms(), outcome="failed", reason=exc.detail)
                return False
            if not isinstance(reply, JoinOk):
                span.end(self.now_ms(), outcome="failed", reason="bad-join-reply")
                return False
            self.cluster = reply.cluster
            self.surrogate_ip = reply.surrogate_ip
            self.surrogate_addr = reply.surrogate_addr
            self.joined = True
            self._joined_addr = bootstrap_addr
            info = self.host.info
            await self.transport.send(
                self.surrogate_addr,
                NodalPublish(
                    ip=self.ip,
                    bandwidth_kbps=info.bandwidth_kbps,
                    uptime_hours=float(info.uptime_hours),
                    cpu_score=info.cpu_score,
                ),
            )
            obs.counter("service.hosts_joined").inc()
            span.end(self.now_ms(), outcome="completed")
            return True
        return False

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

    # -- call setup + media (§6.4, §6.5) -----------------------------------

    async def dial(
        self,
        callee_ip: IPv4Address,
        media_ms: Optional[float] = None,
        media_frames: bool = False,
    ) -> DialResult:
        """Place one call; the full pipeline described in the module doc."""
        if not self.joined:
            raise ServiceError(f"host {self.ip} must join before dialing")
        policy = self._policy
        config = self._world.config
        result = DialResult(caller=self.ip, callee=callee_ip)
        callee_host = self._world.host(callee_ip)
        call_id = (self.ip.value << 16) | next(self._call_seq)

        tracer = obs.tracer()
        tracer.clock = self.now_ms
        started = self.now_ms()
        span = tracer.begin(
            "call",
            started,
            caller=str(self.ip),
            callee=str(callee_ip),
            caller_as=self.host.asn,
            callee_as=callee_host.asn,
        )
        obs.counter("service.calls").inc()

        callee_addr = await self._resolve(callee_ip)
        if callee_addr is None:
            return self._dial_failed(result, span, "callee-unreachable")

        # 1. ping: is the direct path good enough?
        ping_rtt = await self._ping_callee(span, callee_addr, callee_host, result)
        if ping_rtt is None:
            return self._dial_failed(result, span, "ping-timeout")
        result.direct_rtt_ms = round(ping_rtt, 3)
        relay_needed = not ping_rtt < config.lat_threshold_ms

        # The established relay and the selection it came from belong to
        # this call: one agent may have several dials in flight.
        relay_addr = selection = None
        if not relay_needed:
            select = span.child("setup.select", self.now_ms())
            select.end(
                self.now_ms(),
                relay_needed=False,
                direct_rtt_ms=result.direct_rtt_ms,
                one_hop=0,
                two_hop=0,
                messages=0,
            )
            result.path = "direct"
            result.path_rtt_ms = result.direct_rtt_ms
            self._setup_done(result, span, started, "completed", None)
        else:
            relay_addr, selection = await self._setup_relay(
                result, span, started, callee_ip, callee_addr, callee_host, call_id
            )
        if result.outcome == "failed":
            return result

        # Call admission: the callee acknowledges before media flows.
        try:
            accept = await self._request(
                span,
                callee_addr,
                CallSetup(call_id=call_id, caller_ip=self.ip, callee_ip=callee_ip),
                policy.ping_timeout_ms,
                category="call-setup",
                dst_as=callee_host.asn,
            )
        except TransportError:
            accept = None
        if not isinstance(accept, CallAccept) or not accept.accept:
            return self._dial_failed(result, span, "call-rejected")

        if media_ms is not None:
            await self._run_media(
                result, span, callee_addr, call_id, media_ms, media_frames,
                relay_addr, selection,
            )
        result.mos = round(mos_of_path(result.path_rtt_ms), 3) if result.path_rtt_ms is not None else None
        span.end(self.now_ms(), outcome=result.outcome)
        return result

    def _dial_failed(self, result: DialResult, span, reason: str) -> DialResult:
        result.outcome = "failed"
        result.failure_reason = reason
        obs.counter("service.calls_failed").inc()
        obs.event(
            "call.failed",
            level="debug",
            caller=str(result.caller),
            callee=str(result.callee),
            reason=reason,
        )
        span.end(self.now_ms(), outcome="failed", reason=reason)
        return result

    def _setup_done(
        self,
        result: DialResult,
        span,
        started: float,
        outcome: str,
        reason: Optional[str],
    ) -> None:
        result.outcome = outcome
        result.failure_reason = reason
        result.setup_ms = round(self.now_ms() - started, 3)
        obs.counter("service.call_setups").inc()
        if outcome == "degraded":
            obs.counter("service.call_setups_degraded").inc()
        obs.histogram("service.call_setup_ms").observe(result.setup_ms)
        span.point(
            "setup.done",
            self.now_ms(),
            outcome=outcome,
            reason=reason,
            setup_ms=result.setup_ms,
            path=result.path,
            relay=str(result.relay_ip) if result.relay_ip is not None else None,
        )

    async def _ping_callee(
        self, span, callee_addr: str, callee_host, result: DialResult
    ) -> Optional[float]:
        policy = self._policy
        for attempt in range(policy.max_ping_attempts):
            ping = span.child("setup.ping", self.now_ms(), attempt=attempt + 1)
            start = self.now_ms()
            try:
                await self._request(
                    ping,
                    callee_addr,
                    Ping(token=next(self._ping_seq)),
                    policy.ping_timeout_ms,
                    category="ping",
                    dst_as=callee_host.asn,
                )
            except TransportError:
                ping.end(self.now_ms(), outcome="timeout")
                obs.counter("service.ping_retries").inc()
                if attempt + 1 >= policy.max_ping_attempts:
                    return None
                await self.transport.sleep_ms(policy.backoff_ms(attempt))
                continue
            rtt = self.now_ms() - start
            ping.end(self.now_ms(), outcome="ok", rtt_ms=round(rtt, 3))
            result.steps.append(("ping", round(rtt, 3)))
            return rtt
        return None

    async def _fetch_close_set(
        self,
        span,
        leg: str,
        addr: str,
        surrogate_ip: IPv4Address,
        query: CloseSetQuery,
        timeout_ms: float,
    ) -> Optional[CloseClusterSet]:
        """One close-set leg with the policy's bounded retries."""
        policy = self._policy
        for attempt in range(policy.max_close_set_attempts):
            leg_span = span.child(
                "setup.close_set",
                self.now_ms(),
                leg=leg,
                attempt=attempt + 1,
                surrogate=str(surrogate_ip),
            )
            start = self.now_ms()
            try:
                reply = await self._request(
                    leg_span, addr, query, timeout_ms, category="close-set-request"
                )
            except TransportError:
                leg_span.end(self.now_ms(), outcome="timeout")
                obs.counter("service.close_set_retries").inc()
                continue
            if not isinstance(reply, CloseSetReply):
                leg_span.end(self.now_ms(), outcome="timeout")
                continue
            try:
                close_set = pairs_to_close_set(reply.owner, reply.entries)
            except ProtocolError:
                leg_span.end(self.now_ms(), outcome="malformed")
                continue
            elapsed = round(self.now_ms() - start, 3)
            leg_span.end(self.now_ms(), outcome="ok", rtt_ms=elapsed)
            return close_set
        return None

    async def _setup_relay(
        self,
        result: DialResult,
        span,
        started: float,
        callee_ip: IPv4Address,
        callee_addr: str,
        callee_host,
        call_id: int,
    ) -> Tuple[Optional[str], Optional[RelaySelection]]:
        """Close-set exchange, selection, and relay establishment.

        Returns the established relay's wire address (None when the call
        stays on the direct path) and the selection it was picked from."""
        policy = self._policy
        world = self._world
        if self.surrogate_addr is None or self.cluster is None:
            self._setup_done(result, span, started, "degraded", "close-set-unavailable")
            result.path = "direct"
            result.path_rtt_ms = result.direct_rtt_ms
            return None, None

        # 2. the two close-set legs, concurrently (own surrogate; callee
        # forwards to its own — the peer leg's longer path).
        peer_surrogate = world.surrogate_ip(world.cluster_of_ip(callee_ip))
        own_start = self.now_ms()
        s1, s2 = await self.transport.gather(
            self._fetch_close_set(
                span,
                "own",
                self.surrogate_addr,
                self.surrogate_ip,
                CloseSetQuery(cluster=-1, requester_ip=self.ip),
                policy.close_set_timeout_ms,
            ),
            self._fetch_close_set(
                span,
                "peer",
                callee_addr,
                peer_surrogate,
                CloseSetQuery(cluster=-1, requester_ip=self.ip),
                policy.close_set_timeout_ms,
            ),
        )
        result.steps.append(("close_set", round(self.now_ms() - own_start, 3)))
        if s1 is None or s2 is None:
            self._setup_done(result, span, started, "degraded", "close-set-unavailable")
            result.path = "direct"
            result.path_rtt_ms = result.direct_rtt_ms
            return None, None

        # 3. select-close-relay: the one-hop step names the candidate
        # clusters to expand; their close sets are fetched over the wire
        # and the two-hop step runs over whichever arrived.
        selection = select_one_hop(s1, s2, world.cluster_size, world.config)
        fetched: Dict[int, CloseClusterSet] = {}
        if selection.first_hops:
            two_hop_start = self.now_ms()
            await self.transport.gather(
                *[
                    self._fetch_two_hop(span, first.cluster, fetched)
                    for first in selection.first_hops
                ]
            )
            result.steps.append(
                ("two_hop", round(self.now_ms() - two_hop_start, 3))
            )
        select_two_hop(selection, s1, s2, fetched, world.cluster_size, world.config)
        result.selection_messages = selection.messages
        select = span.child("setup.select", self.now_ms())
        select.end(
            self.now_ms(),
            relay_needed=True,
            direct_rtt_ms=result.direct_rtt_ms,
            one_hop=len(selection.one_hop),
            two_hop=len(selection.two_hop),
            messages=selection.messages,
        )

        # 4. establish the best live relay.
        relay_addr = await self._establish_relay(
            span, selection, callee_ip, call_id, result
        )
        best = selection.best_rtt_ms()
        span.point(
            "setup.relay_pick",
            self.now_ms(),
            relay=str(result.relay_ip) if result.relay_ip is not None else None,
            cluster=result.relay_cluster,
            chosen_rtt_ms=result.path_rtt_ms if relay_addr else None,
            best_candidate_rtt_ms=round(best, 3) if best is not None else None,
            direct_rtt_ms=result.direct_rtt_ms,
        )
        if relay_addr:
            result.path = "relay"
            self._setup_done(result, span, started, "completed", None)
        else:
            had = bool(selection.one_hop or selection.two_hop)
            result.path = "direct"
            result.path_rtt_ms = result.direct_rtt_ms
            self._setup_done(
                result,
                span,
                started,
                "degraded",
                "relay-offline" if had else "no-relay-candidates",
            )
        return relay_addr, selection

    async def _fetch_two_hop(
        self, span, cluster: int, fetched: Dict[int, CloseClusterSet]
    ) -> None:
        """One two-hop expansion: the candidate cluster surrogate's set."""
        world = self._world
        surrogate_ip = world.surrogate_ip(cluster)
        addr = await self._resolve(surrogate_ip)
        if addr is None:
            return
        query = span.child(
            "setup.two_hop", self.now_ms(), cluster=cluster, surrogate=str(surrogate_ip)
        )
        start = self.now_ms()
        try:
            reply = await self._request(
                query,
                addr,
                CloseSetQuery(cluster=cluster, requester_ip=self.ip),
                self._policy.two_hop_timeout_ms,
                category="close-set-request",
            )
        except TransportError:
            query.end(self.now_ms(), outcome="timeout")
            return
        if not isinstance(reply, CloseSetReply):
            query.end(self.now_ms(), outcome="timeout")
            return
        try:
            fetched[cluster] = pairs_to_close_set(reply.owner, reply.entries)
        except ProtocolError:
            query.end(self.now_ms(), outcome="malformed")
            return
        query.end(self.now_ms(), outcome="ok", rtt_ms=round(self.now_ms() - start, 3))

    async def _establish_relay(
        self,
        span,
        selection: RelaySelection,
        callee_ip: IPv4Address,
        call_id: int,
        result: DialResult,
        exclude: Optional[set] = None,
    ) -> Optional[str]:
        """RELAY_SETUP the first live candidate, best cluster first; its
        wire address, or None when no candidate accepted.

        Candidates are resolved through the bootstrap directory, so
        only IPs with a running agent are attempted — the wire analogue
        of the simulator's online check.
        """
        exclude = set(exclude or ())
        exclude |= {self.ip, callee_ip}
        setup_start = self.now_ms()
        for rtt, cluster in ranked_relay_clusters(selection):
            tried = 0
            for host in self._world.hosts_in_cluster(cluster):
                if host.ip in exclude or tried >= _RELAY_TRIES_PER_CLUSTER:
                    continue
                addr = await self._resolve(host.ip)
                if addr is None:
                    continue
                tried += 1
                try:
                    reply = await self._request(
                        span,
                        addr,
                        RelaySetup(
                            call_id=call_id, caller_ip=self.ip, callee_ip=callee_ip
                        ),
                        self._policy.ping_timeout_ms,
                        category="relay-setup",
                        dst_as=host.asn,
                    )
                except TransportError:
                    continue
                if isinstance(reply, RelayOk):
                    result.relay_ip = host.ip
                    result.relay_cluster = cluster
                    result.path_rtt_ms = round(rtt, 3)
                    result.steps.append(
                        ("relay_setup", round(self.now_ms() - setup_start, 3))
                    )
                    return addr
        return None

    async def _run_media(
        self,
        result: DialResult,
        span,
        callee_addr: str,
        call_id: int,
        media_ms: float,
        media_frames: bool,
        relay_addr: Optional[str],
        selection: Optional[RelaySelection],
    ) -> None:
        """5. paced media with keepalive-guarded relay failover.

        ``media_frames`` swaps the abstract :class:`Media` packets for
        real timestamped :class:`MediaFrame` messages at the codec's
        actual packetization interval, so the callee accumulates a
        scoreable received-frame trace."""
        policy = self._policy
        target = relay_addr if relay_addr is not None else callee_addr
        if media_frames:
            from repro.media.frames import CODEC_WIRE_IDS
            from repro.voip.codecs import G729A_VAD

            interval_ms = G729A_VAD.packet_interval_ms()
            codec_id = CODEC_WIRE_IDS[G729A_VAD.name]
        else:
            interval_ms = MEDIA_PACKET_INTERVAL_MS
            codec_id = 0
        media = span.child(
            "media",
            self.now_ms(),
            path=result.path,
            relay=str(result.relay_ip) if result.relay_ip is not None else None,
            cluster=result.relay_cluster,
        )
        obs.counter("service.media_sessions").inc()
        ends_at = self.now_ms() + media_ms
        next_keepalive = self.now_ms() + policy.keepalive_interval_ms
        seq = 0
        ka_seq = 0
        dead: set = set()
        while self.now_ms() < ends_at:
            if media_frames:
                await self.transport.send(
                    target,
                    MediaFrame(
                        call_id=call_id,
                        seq=seq,
                        timestamp_ms=self.now_ms(),
                        codec=codec_id,
                        payload=_MEDIA_PAYLOAD,
                    ),
                )
            else:
                await self.transport.send(
                    target, Media(call_id=call_id, seq=seq, payload=_MEDIA_PAYLOAD)
                )
            seq += 1
            if relay_addr is not None and self.now_ms() >= next_keepalive:
                ka_seq += 1
                result.keepalives += 1
                try:
                    await self._request(
                        media,
                        relay_addr,
                        Keepalive(call_id=call_id, seq=ka_seq),
                        policy.keepalive_timeout_ms,
                        category="keepalive",
                    )
                except TransportError:
                    obs.counter("service.keepalive_timeouts").inc()
                    media.point(
                        "media.relay_lost",
                        self.now_ms(),
                        relay=str(result.relay_ip),
                    )
                    dead.add(result.relay_ip)
                    relay_addr = await self._failover(
                        result, media, call_id, selection, dead
                    )
                    target = relay_addr if relay_addr is not None else callee_addr
                next_keepalive = self.now_ms() + policy.keepalive_interval_ms
            await self.transport.sleep_ms(interval_ms)
        result.media_packets = seq
        media.end(self.now_ms(), outcome="completed", packets=seq)
        if relay_addr is not None:
            await self.transport.send(relay_addr, Bye(call_id=call_id, reason="done"))
        await self.transport.send(callee_addr, Bye(call_id=call_id, reason="done"))

    async def _failover(
        self, result: DialResult, media, call_id: int, selection: RelaySelection, dead: set
    ) -> Optional[str]:
        """Re-establish on the next candidate (its wire address), or
        degrade to direct (None)."""
        result.failovers += 1
        obs.counter("service.failovers").inc()
        # Reuse the call's selection ranking via a fresh attempt.
        probe = DialResult(caller=self.ip, callee=result.callee)
        relay_addr = await self._establish_relay(
            media, selection, result.callee, call_id, probe, exclude=dead
        )
        if relay_addr is not None:
            media.point(
                "media.failover",
                self.now_ms(),
                old_relay=str(result.relay_ip),
                new_relay=str(probe.relay_ip),
            )
            result.relay_ip = probe.relay_ip
            result.relay_cluster = probe.relay_cluster
            result.path_rtt_ms = probe.path_rtt_ms
            return relay_addr
        media.point("media.degraded", self.now_ms(), reason="no-relay-candidates")
        result.path = "direct"
        result.path_rtt_ms = result.direct_rtt_ms
        return None
