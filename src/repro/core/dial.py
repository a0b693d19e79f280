"""The paper's call flow (Fig. 8, §6.4–6.5), written once over a port.

:func:`run_join` and :func:`run_dial` are the protocol: the join ladder,
the ping ladder, the two concurrent close-set legs, the one-hop step →
two-hop gather → the two-hop step (a
:class:`~repro.core.relay_selection.SelectionBatch` of one), relay
establishment, call admission, media with a concurrent keepalive loop
and failover, and teardown.  They run over a *port* — everything that depends on where
the flow runs.  :class:`~repro.core.runtime.ASAPRuntime` supplies one
over the simulated network and :class:`~repro.service.host.HostAgent`
one over a wire transport.

A port provides:

- ``config`` (the :class:`~repro.core.config.ASAPConfig`),
  ``namespace`` (the counter prefix, ``runtime`` or ``service``),
  ``host`` (the end host running the flow) and ``address`` (what it
  advertises when it joins);
- ``now_ms()``, ``await sleep_ms(ms)`` and ``await gather(*coros)``;
- ``await exchange(span, target, message, timeout_ms)``: the reply (an
  :class:`~repro.net.codec.ErrorFrame` when the peer answered with an
  error), or ``None`` when nothing came back; and ``await send(target,
  message)``, one way;
- ``await locate(ip)``: a target for an end host, or ``None``;
- ``bootstrap(attempt)`` and ``publish_target(join_ok)``: the join's
  bootstrap and the surrogate that hears the nodal publish;
- ``leg_target(call, leg, attempt, callee)``: ``(target, surrogate_ip)``
  for attempt ``attempt`` of close-set leg ``"own"`` or ``"peer"``
  (``callee`` is the callee's target), or ``None`` when the leg has no
  target left;
- ``await surrogate_target(cluster)``: ``(target, surrogate_ip)`` of a
  two-hop candidate's surrogate, or ``None``;
- ``close_set(reply)``: the set a close-set reply carries (``None`` when
  it carries none; raises :class:`~repro.errors.ProtocolError` when it
  is malformed);
- ``cluster_sizes`` and ``relay_hosts(cluster)``: selection's host
  count per cluster (an array indexed by cluster id) and a cluster's
  relay candidates, in the order tried;
- ``await voice(call, media)``: carry the media until it ends, sending
  to ``media.target``; ``finish_media(call, media)``: score the media
  and end its span.

Every stage emits one span vocabulary (``setup.ping``,
``setup.close_set`` with ``leg=own/peer``, ``setup.two_hop``,
``setup.select``, ``setup.relay_pick``, ``setup.done``, ``media``), so
simulated and wire traces analyze identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set, Tuple

from repro import obs
from repro.core.relay_selection import RelaySelection, SelectionBatch, ranked_relay_clusters
from repro.errors import ProtocolError
from repro.net.codec import (
    ROLE_HOST,
    Bye,
    CallAccept,
    CallSetup,
    CloseSetQuery,
    ErrorFrame,
    Join,
    JoinOk,
    Keepalive,
    KeepaliveAck,
    NodalPublish,
    Ping,
    Pong,
    RelayOk,
    RelaySetup,
)
from repro.netaddr import IPv4Address
from repro.obs.trace import NULL_TRACE_SPAN
from repro.voip.outage import OutageImpact, OutageWindow
from repro.voip.quality import mos_of_path

__all__ = [
    "CATEGORY",
    "DialResult",
    "FailoverEvent",
    "JoinRecord",
    "MediaSessionRecord",
    "run_dial",
    "run_join",
]

#: Relay-candidate hosts tried per cluster before moving on.
RELAY_TRIES_PER_CLUSTER = 4

#: The message category each request is accounted under.
CATEGORY = {
    Join: "join-request",
    NodalPublish: "publish-nodal-info",
    Ping: "ping",
    CloseSetQuery: "close-set-request",
    RelaySetup: "relay-setup",
    CallSetup: "call-setup",
    Keepalive: "keepalive",
    Bye: "bye",
}


# Timeouts per message category, deliberately generous relative to
# simulated RTTs (a few hundred ms) so a timeout genuinely means a fault,
# not a slow path.
JOIN_TIMEOUT_MS = 1_500.0
PING_TIMEOUT_MS = 1_000.0
CLOSE_SET_TIMEOUT_MS = 1_200.0
TWO_HOP_TIMEOUT_MS = 800.0
KEEPALIVE_INTERVAL_MS = 2_000.0
KEEPALIVE_TIMEOUT_MS = 600.0

#: Attempts per stage before the stage gives up.
MAX_JOIN_ATTEMPTS = 3
MAX_PING_ATTEMPTS = 3
MAX_CLOSE_SET_ATTEMPTS = 3

BACKOFF_BASE_MS = 100.0
BACKOFF_FACTOR = 2.0


def backoff_ms(attempt: int) -> float:
    """Delay before retry number ``attempt + 1`` (0-indexed): exponential."""
    return BACKOFF_BASE_MS * BACKOFF_FACTOR**attempt


@dataclass
class JoinRecord:
    """Timing + outcome of one end host's join."""

    ip: IPv4Address
    started_ms: float = 0.0
    completed_ms: Optional[float] = None
    outcome: str = "pending"          # pending | completed | failed
    failure_reason: Optional[str] = None
    attempts: int = 0
    #: The join's root trace span (the shared no-op when tracing is off).
    trace: object = field(default=NULL_TRACE_SPAN, repr=False, compare=False)


@dataclass(frozen=True)
class FailoverEvent:
    """One in-call relay replacement (or the decision to degrade)."""

    detected_ms: float                # keepalive timeout fired
    restored_ms: float                # traffic flowing again (or degraded)
    old_relay: IPv4Address
    new_relay: Optional[IPv4Address]  # None = degraded to direct / dropped
    interruption_ms: float            # outage start (last keepalive send) → restored

    @property
    def failover_ms(self) -> float:
        """Detection → restoration (the §6 backup-relay switch time)."""
        return self.restored_ms - self.detected_ms


@dataclass
class MediaSessionRecord:
    """A call's media, from the end of set-up to the end of the call.

    The caller keepalives the relay every :data:`KEEPALIVE_INTERVAL_MS`; a
    missed keepalive drives failover to the next relay candidate, or —
    with none left — to the direct path if the callee still answers a
    ping, else the call drops.  The substrate closes the session when it
    ends (``finish_media``); the simulator scores its outage windows
    through :func:`repro.voip.outage.account_outages`.
    """

    caller: IPv4Address
    callee: IPv4Address
    started_ms: float
    duration_ms: float
    relay_cluster: Optional[int] = None
    relay_ip: Optional[IPv4Address] = None
    base_rtt_ms: float = 0.0
    outcome: str = "active"           # active | finished | dropped
    degraded_to_direct: bool = False
    keepalives: int = 0
    packets: int = 0                  # voice frames sent (wire)
    failovers: List[FailoverEvent] = field(default_factory=list)
    outage_windows: List[OutageWindow] = field(default_factory=list)
    impact: Optional[OutageImpact] = None  # once scored
    #: Where media goes now: the relay's target, or the callee's.
    target: object = field(default=None, repr=False, compare=False)
    trace: object = field(default=NULL_TRACE_SPAN, repr=False, compare=False)

    @property
    def ends_ms(self) -> float:
        return self.started_ms + self.duration_ms

    @property
    def interruption_ms_total(self) -> float:
        return sum(w.duration_ms for w in self.outage_windows)


@dataclass
class DialResult:
    """One call placed by :func:`run_dial`, in either substrate.

    ``outcome`` stays ``pending`` until set-up ends, then reads
    ``completed`` (a usable path, relayed or direct-because-good),
    ``degraded`` (a relay was needed but the call fell back to the
    direct path — the reason says why) or ``failed`` (no call; the
    reason says why).  ``path``, ``relay_ip``, ``relay_cluster`` and
    ``path_rtt_ms`` describe the path set up; what happened to it during
    the call is in ``media``.
    """

    caller: IPv4Address
    callee: IPv4Address
    call_id: int = 0
    started_ms: float = 0.0
    completed_ms: Optional[float] = None
    outcome: str = "pending"  # pending | completed | degraded | failed
    failure_reason: Optional[str] = None
    path: Optional[str] = None  # direct | relay
    relay_ip: Optional[IPv4Address] = None
    relay_cluster: Optional[int] = None
    direct_rtt_ms: Optional[float] = None  # the measured ping RTT
    path_rtt_ms: Optional[float] = None
    relay_needed: Optional[bool] = None
    selection: Optional[RelaySelection] = field(default=None, repr=False)
    selection_messages: int = 0
    attempts: int = 0                 # ping attempts
    retries: int = 0                  # close-set re-attempts
    mos: Optional[float] = None
    #: setup critical path: (stage, milliseconds), in execution order.
    steps: List[Tuple[str, float]] = field(default_factory=list)
    media: Optional[MediaSessionRecord] = field(default=None, repr=False)
    #: The call's root trace span (the shared no-op when tracing is off).
    trace: object = field(default=NULL_TRACE_SPAN, repr=False, compare=False)

    @property
    def setup_ms(self) -> Optional[float]:
        if self.completed_ms is None:
            return None
        return round(self.completed_ms - self.started_ms, 3)

    @property
    def media_packets(self) -> int:
        return self.media.packets if self.media is not None else 0

    @property
    def keepalives(self) -> int:
        return self.media.keepalives if self.media is not None else 0

    @property
    def failovers(self) -> int:
        return len(self.media.failovers) if self.media is not None else 0


# -- join (§6.1) ----------------------------------------------------------------


async def run_join(port, record: JoinRecord) -> Optional[Tuple[object, JoinOk]]:
    """Register with a bootstrap (the next one, backed off, when one is
    silent), then publish nodal info to the assigned surrogate.

    Returns the answering bootstrap's target and its ``JoinOk``, or
    ``None`` when the join failed (``record`` says why).
    """
    host, now = port.host, port.now_ms
    record.started_ms = now()
    tracer = obs.tracer()
    if tracer:
        tracer.clock = now
        record.trace = tracer.begin("join", record.started_ms, ip=str(host.ip), asn=host.asn)
    message = Join(ip=host.ip, role=ROLE_HOST, cluster=-1, wire_addr=port.address)
    for attempt in range(MAX_JOIN_ATTEMPTS):
        target = port.bootstrap(attempt)
        record.attempts += 1
        reply = await port.exchange(record.trace, target, message, JOIN_TIMEOUT_MS)
        if isinstance(reply, JoinOk):
            break
        if reply is not None:
            reason = reply.detail if isinstance(reply, ErrorFrame) else "bad-join-reply"
            return _join_failed(port, record, reason)
        obs.counter(f"{port.namespace}.join_retries").inc()
        record.trace.point("join.retry", now(), attempt=attempt + 1)
        if attempt + 1 < MAX_JOIN_ATTEMPTS:
            await port.sleep_ms(backoff_ms(attempt))
    else:
        return _join_failed(port, record, "join-timeout")
    info = host.info
    await port.send(
        port.publish_target(reply),
        NodalPublish(
            ip=host.ip,
            bandwidth_kbps=info.bandwidth_kbps,
            uptime_hours=float(info.uptime_hours),
            cpu_score=info.cpu_score,
        ),
    )
    record.completed_ms = now()
    record.outcome = "completed"
    obs.counter(f"{port.namespace}.hosts_joined").inc()
    record.trace.end(record.completed_ms, outcome="completed")
    return target, reply


def _join_failed(port, record: JoinRecord, reason: str) -> None:
    record.outcome = "failed"
    record.failure_reason = reason
    obs.counter(f"{port.namespace}.joins_failed").inc()
    record.trace.end(port.now_ms(), outcome="failed", reason=reason)


# -- call set-up (§6.4) ------------------------------------------------------------


async def run_dial(
    port,
    call: DialResult,
    callee,
    media_ms: Optional[float] = None,
) -> DialResult:
    """Place ``call`` to the ``callee`` host, Fig. 8 top to bottom.

    Ping the callee; when the measured RTT misses the latency threshold,
    fetch both close sets, select, and set up the best relay that
    answers.  The callee then admits the call, media runs for
    ``media_ms`` (none when ``None``), and everything set up is torn down
    with a ``Bye`` whichever way the call ends.
    """
    now = port.now_ms
    call.started_ms = now()
    tracer = obs.tracer()
    if tracer:
        tracer.clock = now
        call.trace = tracer.begin(
            "call",
            call.started_ms,
            caller=str(call.caller),
            callee=str(call.callee),
            caller_as=port.host.asn,
            callee_as=callee.asn,
        )
    obs.counter(f"{port.namespace}.calls").inc()
    target = await port.locate(call.callee)
    if target is None:
        return _failed(port, call, "callee-unreachable")
    rtt = await _ping(port, call, target)
    if rtt is None:
        return _failed(port, call, "ping-timeout")
    call.direct_rtt_ms = round(rtt, 3)
    call.relay_needed = not rtt < port.config.lat_threshold_ms
    relay = None
    if call.relay_needed:
        relay = await _set_up_relay(port, call, target)
    else:
        call.trace.child("setup.select", now()).end(
            now(),
            relay_needed=False,
            direct_rtt_ms=call.direct_rtt_ms,
            one_hop=0,
            two_hop=0,
            messages=0,
        )
        _setup_done(port, call, "completed", "direct")

    admission = CallSetup(call_id=call.call_id, caller_ip=call.caller, callee_ip=call.callee)
    accept = await port.exchange(call.trace, target, admission, PING_TIMEOUT_MS)
    if isinstance(accept, CallAccept) and accept.accept:
        if media_ms is not None:
            relay = await _media(port, call, target, relay, media_ms)
        call.mos = round(mos_of_path(call.path_rtt_ms), 3)
        call.trace.end(now(), outcome=call.outcome)
    else:
        _failed(port, call, "call-rejected")
    for peer in (relay, target):
        if peer is not None:
            await port.send(peer, Bye(call_id=call.call_id, reason="done"))
    return call


def _failed(port, call: DialResult, reason: str) -> DialResult:
    call.outcome = "failed"
    call.failure_reason = reason
    obs.counter(f"{port.namespace}.calls_failed").inc()
    call.trace.end(port.now_ms(), outcome="failed", reason=reason)
    return call


def _setup_done(
    port, call: DialResult, outcome: str, path: str, reason: Optional[str] = None
) -> None:
    call.path = path
    if path == "direct":
        call.path_rtt_ms = call.direct_rtt_ms
    call.outcome = outcome
    call.failure_reason = reason
    call.completed_ms = port.now_ms()
    setup_ms = call.setup_ms
    namespace = port.namespace
    obs.counter(f"{namespace}.call_setups").inc()
    if outcome == "degraded":
        obs.counter(f"{namespace}.call_setups_degraded").inc()
    obs.histogram(f"{namespace}.call_setup_ms").observe(setup_ms)
    call.trace.point(
        "setup.done",
        call.completed_ms,
        outcome=outcome,
        reason=reason,
        setup_ms=setup_ms,
        path=path,
        relay=str(call.relay_ip) if call.relay_ip is not None else None,
    )


async def _ping(port, call: DialResult, target) -> Optional[float]:
    """The ping ladder: the measured RTT, or None after every attempt
    went unanswered (each retry backed off)."""
    for attempt in range(MAX_PING_ATTEMPTS):
        start = port.now_ms()
        span = call.trace.child("setup.ping", start, attempt=attempt + 1)
        call.attempts += 1
        reply = await port.exchange(span, target, Ping(token=attempt + 1), PING_TIMEOUT_MS)
        end = port.now_ms()
        if isinstance(reply, Pong):
            rtt = end - start
            span.end(end, outcome="ok", rtt_ms=round(rtt, 3))
            call.steps.append(("ping", round(rtt, 3)))
            return rtt
        span.end(end, outcome="timeout")
        obs.counter(f"{port.namespace}.ping_retries").inc()
        if attempt + 1 < MAX_PING_ATTEMPTS:
            await port.sleep_ms(backoff_ms(attempt))
    return None


async def _set_up_relay(port, call: DialResult, callee) -> Optional[object]:
    """The two close-set legs, selection, and relay establishment; the
    established relay's target, or None when the call stays direct."""
    now, config = port.now_ms, port.config
    start = now()
    s1, s2 = await port.gather(
        _close_set_leg(port, call, callee, "own"),
        _close_set_leg(port, call, callee, "peer"),
    )
    call.steps.append(("close_set", round(now() - start, 3)))
    if s1 is None or s2 is None:
        _setup_done(port, call, "degraded", "direct", "close-set-unavailable")
        return None

    # Fig. 10: the one-hop step names the candidate clusters to expand;
    # their close sets are fetched in parallel and the two-hop step runs
    # over whichever arrived.
    batch = SelectionBatch([(s1, s2)], port.cluster_sizes, config)
    first_hops = batch.first_hops[0].tolist()
    fetched: dict = {}
    if first_hops:
        start = now()
        await port.gather(*[_two_hop(port, call, first, fetched) for first in first_hops])
        call.steps.append(("two_hop", round(now() - start, 3)))
    (selection,) = batch.expand(fetched)
    call.selection = selection
    call.selection_messages = selection.messages
    call.trace.child("setup.select", now()).end(
        now(),
        relay_needed=True,
        direct_rtt_ms=call.direct_rtt_ms,
        one_hop=len(selection.one_hop),
        two_hop=len(selection.two_hop),
        messages=selection.messages,
    )

    start = now()
    relay = await _establish_relay(port, call, call.trace, {call.caller, call.callee})
    if relay is not None:
        call.relay_cluster, call.relay_ip, target, rtt = relay
        call.path_rtt_ms = round(rtt, 3)
        call.steps.append(("relay_setup", round(now() - start, 3)))
    best = selection.best_rtt_ms()
    call.trace.point(
        "setup.relay_pick",
        now(),
        relay=str(call.relay_ip) if call.relay_ip is not None else None,
        cluster=call.relay_cluster,
        chosen_rtt_ms=call.path_rtt_ms if relay is not None else None,
        best_candidate_rtt_ms=round(best, 3) if best is not None else None,
        direct_rtt_ms=call.direct_rtt_ms,
    )
    if relay is not None:
        _setup_done(port, call, "completed", "relay")
        return target
    had_candidates = bool(len(selection.one_hop) or len(selection.two_hop))
    reason = "relay-offline" if had_candidates else "no-relay-candidates"
    _setup_done(port, call, "degraded", "direct", reason)
    return None


async def _close_set_leg(port, call: DialResult, callee, leg: str):
    """One close-set leg: ``"own"`` asks the caller's surrogate,
    ``"peer"`` asks the callee, who asks its own.  Each attempt goes to
    the target the port names for it; the set, or None once exhausted."""
    query = CloseSetQuery(cluster=-1, requester_ip=call.caller)
    for attempt in range(MAX_CLOSE_SET_ATTEMPTS):
        named = port.leg_target(call, leg, attempt, callee)
        if named is None:
            break
        target, surrogate_ip = named
        if attempt:
            call.retries += 1
            obs.counter(f"{port.namespace}.close_set_retries").inc()
        span = call.trace.child(
            "setup.close_set",
            port.now_ms(),
            leg=leg,
            attempt=attempt + 1,
            surrogate=str(surrogate_ip),
        )
        close_set = await _fetch_close_set(port, span, target, query, CLOSE_SET_TIMEOUT_MS)
        if close_set is not None:
            return close_set
    return None


async def _two_hop(port, call: DialResult, cluster: int, fetched: dict) -> None:
    """One two-hop expansion: the candidate cluster surrogate's set."""
    named = await port.surrogate_target(cluster)
    if named is None:
        return
    target, surrogate_ip = named
    span = call.trace.child(
        "setup.two_hop", port.now_ms(), cluster=cluster, surrogate=str(surrogate_ip)
    )
    query = CloseSetQuery(cluster=cluster, requester_ip=call.caller)
    close_set = await _fetch_close_set(port, span, target, query, TWO_HOP_TIMEOUT_MS)
    if close_set is not None:
        fetched[cluster] = close_set


async def _fetch_close_set(port, span, target, query, timeout_ms: float):
    """One close-set exchange, its outcome on ``span``: the set, or None."""
    start = port.now_ms()
    reply = await port.exchange(span, target, query, timeout_ms)
    end = port.now_ms()
    try:
        close_set = port.close_set(reply)
    except ProtocolError:
        span.end(end, outcome="malformed")
        return None
    if close_set is None:
        span.end(end, outcome="timeout")
        return None
    span.end(end, outcome="ok", rtt_ms=round(end - start, 3))
    return close_set


async def _establish_relay(port, call: DialResult, span, exclude: Set[IPv4Address]):
    """RelaySetup the first candidate that answers, best cluster first and
    at most :data:`RELAY_TRIES_PER_CLUSTER` located hosts per cluster;
    ``(cluster, ip, target, relay-path RTT)``, or None."""
    setup = RelaySetup(call_id=call.call_id, caller_ip=call.caller, callee_ip=call.callee)
    for rtt, cluster in ranked_relay_clusters(call.selection):
        tried = 0
        for host in port.relay_hosts(cluster):
            if tried == RELAY_TRIES_PER_CLUSTER:
                break
            if host.ip in exclude:
                continue
            target = await port.locate(host.ip)
            if target is None:
                continue
            tried += 1
            if isinstance(await port.exchange(span, target, setup, PING_TIMEOUT_MS), RelayOk):
                return cluster, host.ip, target, rtt
    return None


# -- media (§6.5) -----------------------------------------------------------------


async def _media(port, call: DialResult, callee, relay, media_ms: float):
    """Voice and keepalives side by side until the call ends; the relay
    target the media ended on (None when it ended direct)."""
    now = port.now_ms()
    media = call.media = MediaSessionRecord(
        caller=call.caller,
        callee=call.callee,
        started_ms=now,
        duration_ms=media_ms,
        relay_cluster=call.relay_cluster,
        relay_ip=call.relay_ip,
        base_rtt_ms=call.path_rtt_ms,
        target=relay if relay is not None else callee,
    )
    media.trace = call.trace.child(
        "media",
        now,
        path=call.path,
        relay=str(call.relay_ip) if call.relay_ip is not None else None,
        cluster=call.relay_cluster,
    )
    obs.counter(f"{port.namespace}.media_sessions").inc()
    await port.gather(port.voice(call, media), _keepalives(port, call, media, callee))
    if media.outcome == "active":
        media.outcome = "finished"
        obs.counter(f"{port.namespace}.media_finished").inc()
    port.finish_media(call, media)
    return media.target if media.relay_ip is not None else None


async def _keepalives(port, call: DialResult, media: MediaSessionRecord, callee) -> None:
    """Keepalive the relay every interval while the call lasts; a
    missed one means the relay is lost, and the call fails over."""
    now = port.now_ms
    dead: Set[IPv4Address] = set()
    next_at = media.started_ms + KEEPALIVE_INTERVAL_MS
    while media.relay_ip is not None and media.outcome == "active" and next_at < media.ends_ms:
        await port.sleep_ms(next_at - now())
        media.keepalives += 1
        sent_at = now()
        keepalive = Keepalive(call_id=call.call_id, seq=media.keepalives)
        reply = await port.exchange(media.trace, media.target, keepalive, KEEPALIVE_TIMEOUT_MS)
        if isinstance(reply, KeepaliveAck):
            next_at = sent_at + KEEPALIVE_INTERVAL_MS
            continue
        obs.counter(f"{port.namespace}.keepalive_timeouts").inc()
        media.trace.point("media.relay_lost", now(), relay=str(media.relay_ip))
        await _failover(port, call, media, callee, sent_at, dead)
        next_at = now() + KEEPALIVE_INTERVAL_MS


async def _failover(
    port, call: DialResult, media: MediaSessionRecord, callee, outage_start: float, dead: set
) -> None:
    """Set up the next relay candidate that answers (none of the ``dead``
    ones); with none left, go direct if the callee answers a ping, else
    drop the call."""
    namespace, now = port.namespace, port.now_ms
    detected = now()
    old_relay = media.relay_ip
    dead.add(old_relay)
    relay = await _establish_relay(port, call, media.trace, dead | {call.caller, call.callee})
    answered = False
    if relay is None:
        probe = Ping(token=0)
        answered = isinstance(
            await port.exchange(media.trace, callee, probe, PING_TIMEOUT_MS), Pong
        )
    restored = now()
    event = FailoverEvent(
        detected_ms=detected,
        restored_ms=restored,
        old_relay=old_relay,
        new_relay=relay[1] if relay is not None else None,
        interruption_ms=restored - outage_start,
    )
    media.failovers.append(event)
    obs.histogram(f"{namespace}.interruption_ms").observe(event.interruption_ms)
    if relay is not None:
        media.relay_cluster, media.relay_ip, media.target, _ = relay
        media.outage_windows.append(OutageWindow(start_ms=outage_start, end_ms=restored))
        obs.counter(f"{namespace}.failovers").inc()
        obs.histogram(f"{namespace}.failover_ms").observe(event.failover_ms)
        media.trace.point(
            "media.failover",
            restored,
            old_relay=str(old_relay),
            new_relay=str(media.relay_ip),
            cluster=media.relay_cluster,
            detected_ms=round(detected, 3),
            failover_ms=round(event.failover_ms, 3),
            interruption_ms=round(event.interruption_ms, 3),
        )
        return
    media.relay_ip = media.relay_cluster = None
    if answered:
        media.target = callee
        media.degraded_to_direct = True
        media.outage_windows.append(OutageWindow(start_ms=outage_start, end_ms=restored))
        obs.counter(f"{namespace}.media_degraded").inc()
        media.trace.point(
            "media.degraded",
            restored,
            old_relay=str(old_relay),
            detected_ms=round(detected, 3),
            interruption_ms=round(event.interruption_ms, 3),
        )
        return
    # Nothing carries the call: it drops here.  It is still scored over
    # its scheduled duration, the undelivered tail counted as outage.
    media.outage_windows.append(OutageWindow(start_ms=outage_start, end_ms=media.ends_ms))
    media.outcome = "dropped"
    obs.counter(f"{namespace}.media_dropped").inc()
    media.trace.point(
        "media.dropped", restored, old_relay=str(old_relay), detected_ms=round(detected, 3)
    )
