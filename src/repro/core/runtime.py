"""Event-driven ASAP deployment: protocol flows over the simulated network.

:class:`ASAPSystem` computes *what* the protocol decides; this module
adds *when* — and *what happens when the network misbehaves*.  Joins,
nodal publishes and call setups run as real request/response exchanges
over :class:`~repro.sim.network.SimNetwork`, every hop paying the
latency model's one-way delay, and every exchange guarded by a timeout.
The headline measurement is **call setup time** — the paper's answer to
Skype's Limit 3: where Skype needs tens-to-hundreds of seconds of
probing to stabilize, ASAP's select-close-relay completes in a handful
of RTTs.

Setup flow timed for a latent session (Fig. 8's steps):

1. caller pings callee (1 RTT) and sees the direct path is latent;
2. caller fetches its close cluster set from its surrogate (1 RTT to
   the surrogate);
3. caller requests the callee's close set through the callee (1 RTT +
   the callee's own surrogate round trip when not cached);
4. if one-hop candidates are too few, the caller queries candidate
   surrogates for their close sets in parallel (max of those RTTs);
5. selection completes locally.

Fault tolerance (driven by :mod:`repro.faults` injecting crashes,
outages and loss):

- every record terminates: ``outcome`` is one of ``completed``,
  ``degraded`` (fell back to the direct path, recorded as such) or
  ``failed`` (with a reason) — nothing hangs on a dead peer;
- joins retry the **next bootstrap** with exponential backoff when a
  bootstrap times out;
- close-set requests fail over to **backup surrogate-group members**
  (§6.3's replicas) before degrading to the direct path;
- active relayed calls send **keepalives** to their relay; a missed
  keepalive triggers failover to the next candidate from the already
  computed close-set intersection (§6's backup-relay maintenance), and
  the outage window is accounted through :mod:`repro.voip.outage`.

Two reachability regimes are deliberately distinct: a *structurally*
unreachable destination (the latency model has no route, a permanent
condition in these static worlds) fails fast without retries, exactly
preserving the sunny-day message counts and timings; a *fault*-caused
silence (host down, AS failed, loss) goes through the timeout → retry →
failover machinery.  With a zeroed fault schedule results are therefore
bit-identical to the pre-fault runtime.

Each flow is one coroutine on the runtime's
:class:`~repro.sim.engine.Simulator` (``_join``, ``_call`` with its
``_close_set_leg`` / ``_two_hop_query`` branches, ``_keepalives`` with
``_failover``): it awaits an exchange or sleeps on the virtual clock,
so the retry ladders read top to bottom.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from repro import obs
from repro.obs.trace import NULL_TRACE_SPAN
from repro.core.config import ASAPConfig
from repro.core.protocol import ASAPSession, ASAPSystem
from repro.core.relay_selection import ranked_relay_clusters
from repro.errors import ConfigurationError, ProtocolError
from repro.netaddr import IPv4Address
from repro.scenario import Scenario
from repro.sim.engine import Simulator, Wait
from repro.sim.network import SimNetwork
from repro.topology.population import Host, NodalInfo
from repro.voip.outage import OutageImpact, OutageWindow, account_outages
from repro.voip.quality import mos_of_path


def _finite(value) -> Optional[float]:
    """A trace-attr-safe float: rounded, or None when not finite."""
    if value is None:
        return None
    value = float(value)
    return round(value, 3) if np.isfinite(value) else None


@dataclass(frozen=True, kw_only=True)
class RuntimePolicy:
    """Timeout / retry / backoff / keepalive knobs of the runtime.

    Timeouts are per message category; retries are bounded and backed
    off exponentially (``backoff_base_ms * backoff_factor**attempt``).
    Defaults are deliberately generous relative to simulated RTTs (a few
    hundred ms) so a timeout genuinely means a fault, not a slow path.
    """

    join_timeout_ms: float = 1_500.0
    ping_timeout_ms: float = 1_000.0
    close_set_timeout_ms: float = 1_200.0
    two_hop_timeout_ms: float = 800.0
    keepalive_interval_ms: float = 2_000.0
    keepalive_timeout_ms: float = 600.0
    max_join_attempts: int = 3
    max_ping_attempts: int = 3
    max_close_set_attempts: int = 3
    backoff_base_ms: float = 100.0
    backoff_factor: float = 2.0

    def __post_init__(self) -> None:
        for name in (
            "join_timeout_ms",
            "ping_timeout_ms",
            "close_set_timeout_ms",
            "two_hop_timeout_ms",
            "keepalive_interval_ms",
            "keepalive_timeout_ms",
            "backoff_base_ms",
        ):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")
        for name in ("max_join_attempts", "max_ping_attempts", "max_close_set_attempts"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1")
        if self.backoff_factor < 1.0:
            raise ConfigurationError("backoff_factor must be >= 1")

    def backoff_ms(self, attempt: int) -> float:
        """Delay before retry number ``attempt + 1`` (0-indexed)."""
        return self.backoff_base_ms * self.backoff_factor**attempt


@dataclass
class JoinRecord:
    """Timing + outcome of one end host's join."""

    ip: IPv4Address
    started_ms: float
    completed_ms: Optional[float] = None
    outcome: str = "pending"          # pending | completed | failed
    failure_reason: Optional[str] = None
    attempts: int = 0
    #: The join's root trace span (the shared no-op when tracing is off).
    trace: object = field(default=NULL_TRACE_SPAN, repr=False, compare=False)

    @property
    def duration_ms(self) -> Optional[float]:
        if self.completed_ms is None:
            return None
        return self.completed_ms - self.started_ms


@dataclass
class CallSetupRecord:
    """Timing + outcome of one call's relay selection.

    ``outcome`` is terminal-state machine output: ``completed`` (a
    usable path, relayed or direct-because-good), ``degraded`` (relay
    was needed but setup fell back to the direct path — the reason says
    why) or ``failed`` (no path at all).  ``completed_ms`` stays None
    for failed setups so :meth:`ASAPRuntime.setup_times_ms` keeps its
    meaning.
    """

    caller: IPv4Address
    callee: IPv4Address
    started_ms: float
    completed_ms: Optional[float] = None
    session: Optional[ASAPSession] = None
    outcome: str = "pending"          # pending | completed | degraded | failed
    failure_reason: Optional[str] = None
    attempts: int = 0                 # ping attempts
    retries: int = 0                  # close-set retries to backup surrogates
    relay_cluster: Optional[int] = None
    relay_ip: Optional[IPv4Address] = None
    #: The call's root trace span (the shared no-op when tracing is off).
    trace: object = field(default=NULL_TRACE_SPAN, repr=False, compare=False)

    @property
    def setup_ms(self) -> Optional[float]:
        if self.completed_ms is None:
            return None
        return self.completed_ms - self.started_ms

    @property
    def terminal(self) -> bool:
        return self.outcome != "pending"

    @property
    def path(self) -> Optional[str]:
        """"relay" or "direct" once terminal (None for failed setups)."""
        if self.outcome == "completed" and self.relay_ip is not None:
            return "relay"
        if self.outcome in ("completed", "degraded"):
            return "direct"
        return None


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
    """An in-progress voice session riding a selected path.

    The runtime keepalives the relay every ``keepalive_interval_ms``;
    missed keepalives drive failover.  At session end the outage windows
    are scored through :func:`repro.voip.outage.account_outages` (MOS
    dip, interruption time).
    """

    caller: IPv4Address
    callee: IPv4Address
    started_ms: float
    ends_ms: float
    relay_cluster: Optional[int] = None
    relay_ip: Optional[IPv4Address] = None
    base_rtt_ms: float = 0.0
    outcome: str = "active"           # active | finished | dropped
    degraded_to_direct: bool = False
    keepalives: int = 0
    failovers: List[FailoverEvent] = field(default_factory=list)
    outage_windows: List[OutageWindow] = field(default_factory=list)
    impact: Optional[OutageImpact] = None
    dead_relays: Set[IPv4Address] = field(default_factory=set, repr=False)
    #: Failover candidates as (relay_rtt_ms, cluster), best first.
    candidates: List[Tuple[float, int]] = field(default_factory=list, repr=False)
    #: Media-plane state (populated only when the runtime was built with
    #: a ``media_plane`` config): sampled path segments, the measured
    #: :class:`repro.media.session.MediaResult`, and the switch count.
    media_call_id: int = 0
    path_windows: List = field(default_factory=list, repr=False)
    measured: Optional[object] = field(default=None, repr=False)
    codec_switches: int = 0
    #: The media span and the owning call's root span (no-ops when off);
    #: the root is closed here because media outlives the setup record's
    #: terminal transition.
    trace: object = field(default=NULL_TRACE_SPAN, repr=False, compare=False)
    call_trace: object = field(default=NULL_TRACE_SPAN, repr=False, compare=False)

    @property
    def interruption_ms_total(self) -> float:
        return sum(w.duration_ms for w in self.outage_windows)

    @property
    def duration_ms(self) -> float:
        return self.ends_ms - self.started_ms


@dataclass
class _SetupTiming:
    """Analytic timing of one call setup's close-set exchange.

    Mirrors the pre-fault runtime's ``anchor + (max(own, peer) +
    two_hop)``: when no timeout or retry perturbed the flow, completion
    is stamped with exactly that sum, keeping zero-fault runs
    bit-identical despite the event chain associating the same additions
    differently.
    """

    anchor_ms: float
    #: First-attempt RTT of each close-set leg ("own" / "peer").
    leg_rtt_ms: Dict[str, float] = field(
        default_factory=lambda: {"own": 0.0, "peer": 0.0}
    )
    two_hop_ms: float = 0.0
    perturbed: bool = False

    @property
    def analytic_completed_ms(self) -> float:
        return self.anchor_ms + (max(self.leg_rtt_ms.values()) + self.two_hop_ms)


class ASAPRuntime:
    """Drives ASAP protocol flows through a discrete-event simulation."""

    def __init__(
        self,
        scenario: Scenario,
        config: Optional[ASAPConfig] = None,
        policy: Optional[RuntimePolicy] = None,
        media_plane=None,
        media_seed: int = 0,
    ) -> None:
        self._scenario = scenario
        self._config = config = config if config is not None else ASAPConfig()
        self._policy = policy if policy is not None else RuntimePolicy()
        #: Optional :class:`repro.media.session.MediaPlaneConfig`.  When
        #: set, every media session also runs real frames over its
        #: (sampled) path and is scored from the received trace; when
        #: ``None`` — the default — no extra events are scheduled and
        #: runs stay bit-identical to the frame-free runtime.
        self._media_plane = media_plane
        self._media_seed = media_seed
        self._system = ASAPSystem(scenario, config)
        self.sim = Simulator()
        self.network = SimNetwork(self.sim, scenario.latency)
        self._bootstrap_hosts = self._make_bootstrap_hosts()
        self._registered: Dict[IPv4Address, Host] = {}
        self.joins: List[JoinRecord] = []
        self.call_setups: List[CallSetupRecord] = []
        self.media_sessions: List[MediaSessionRecord] = []
        self.surrogate_failures: List = []
        for host in self._bootstrap_hosts:
            self.network.register(host, lambda message: None)

    @property
    def system(self) -> ASAPSystem:
        return self._system

    @property
    def policy(self) -> RuntimePolicy:
        return self._policy

    @property
    def bootstrap_hosts(self) -> List[Host]:
        return list(self._bootstrap_hosts)

    def _make_bootstrap_hosts(self) -> List[Host]:
        """Synthesize dedicated bootstrap servers inside transit ASes."""
        hosts: List[Host] = []
        transit = self._scenario.topology.transit_ases()
        for index in range(self._config.bootstrap_count):
            asn = transit[index % len(transit)]
            prefixes = self._scenario.allocation.prefixes_of.get(asn)
            if not prefixes:
                raise ProtocolError(f"transit AS {asn} has no prefix for a bootstrap")
            ip = prefixes[0].nth_address(10 + index)
            hosts.append(
                Host(
                    ip=ip,
                    asn=asn,
                    prefix=prefixes[0],
                    access_delay_ms=1.0,
                    info=NodalInfo(bandwidth_kbps=10**6, uptime_hours=10**4, cpu_score=100.0),
                )
            )
        return hosts

    def _ensure_registered(self, ip: IPv4Address) -> Host:
        host = self._registered.get(ip)
        if host is None:
            host = self._scenario.population.by_ip(ip)
            self.network.register(host, lambda message: None)
            self._registered[ip] = host
        return host

    def _rtt_between(self, a: Host, b: Host) -> Optional[float]:
        return self._scenario.latency.host_rtt_ms(a, b)

    def _exchange(
        self, src: Host, dst_ip: IPv4Address, category: str, timeout_ms, rtt_ms, trace
    ) -> Wait:
        """One request/response over the simulated network, awaitable:
        True when the response arrived, False when the timeout fired."""
        wait = self.sim.wait()
        self.network.request(
            src,
            dst_ip,
            category,
            timeout_ms=timeout_ms,
            rtt_ms=rtt_ms,
            on_response=lambda: wait.resolve(True),
            on_timeout=lambda: wait.resolve(False),
            trace=trace,
        )
        return wait

    # -- join flow -----------------------------------------------------------

    def schedule_join(self, ip: IPv4Address, at_ms: float = 0.0) -> JoinRecord:
        """Schedule an end host's join at a simulated time."""
        record = JoinRecord(ip=ip, started_ms=at_ms)
        self.joins.append(record)
        host = self._ensure_registered(ip)
        self.sim.schedule_at(at_ms, lambda: self.sim.spawn(self._join(record, host)))
        return record

    async def _join(self, record: JoinRecord, host: Host) -> None:
        """Register with a bootstrap (next one, backed off, on timeout),
        then publish nodal info to the cluster's surrogate."""
        record.started_ms = self.sim.now_ms
        tracer = obs.tracer()
        if tracer:
            tracer.clock = lambda: self.sim.now_ms
            record.trace = tracer.begin(
                "join", self.sim.now_ms, ip=str(record.ip), asn=host.asn
            )
        bootstraps = self._bootstrap_hosts
        for attempt in range(self._policy.max_join_attempts):
            bootstrap_host = bootstraps[(host.ip.value + attempt) % len(bootstraps)]
            rtt = self._rtt_between(host, bootstrap_host)
            if rtt is None:
                # No route in the static world: retrying cannot help.
                return self._join_failed(record, "bootstrap-unreachable")
            record.attempts += 1
            timeout_ms = self._policy.join_timeout_ms
            if await self._exchange(
                host, bootstrap_host.ip, "join-request", timeout_ms, rtt, record.trace
            ):
                break
            obs.counter("runtime.join_retries").inc()
            record.trace.point("join.retry", self.sim.now_ms, attempt=attempt + 1)
            if attempt + 1 < self._policy.max_join_attempts:
                await self.sim.sleep(self._policy.backoff_ms(attempt))
        else:
            return self._join_failed(record, "join-timeout")

        self._system.join(host.ip)
        surrogate = self._system.surrogate(
            self._system.cluster_of_ip(host.ip), requester=host.ip
        )
        surrogate_host = self._ensure_registered(surrogate.ip) if surrogate.ip in self._scenario.population else surrogate.host
        self.network.send(host, surrogate.ip, "publish-nodal-info", trace=record.trace)
        publish_rtt = self._rtt_between(host, surrogate_host)
        await self.sim.sleep((publish_rtt / 2.0) if publish_rtt is not None else 0.0)
        record.completed_ms = self.sim.now_ms
        record.outcome = "completed"
        obs.counter("runtime.joins").inc()
        record.trace.end(self.sim.now_ms, outcome="completed")

    def _join_failed(self, record: JoinRecord, reason: str) -> None:
        record.outcome = "failed"
        record.failure_reason = reason
        obs.counter("runtime.joins_failed").inc()
        obs.event("join.failed", level="debug", ip=str(record.ip), reason=reason)
        record.trace.end(self.sim.now_ms, outcome="failed", reason=reason)

    # -- call setup flow -------------------------------------------------------

    def schedule_call(
        self,
        caller_ip: IPv4Address,
        callee_ip: IPv4Address,
        at_ms: float = 0.0,
        on_complete: Optional[Callable[[CallSetupRecord], None]] = None,
        media_duration_ms: Optional[float] = None,
    ) -> CallSetupRecord:
        """Schedule a call setup; timing lands in the returned record.

        With ``media_duration_ms`` set, a successful setup starts a
        keepalive-guarded :class:`MediaSessionRecord` on the selected
        path for that long.
        """
        record = CallSetupRecord(caller=caller_ip, callee=callee_ip, started_ms=at_ms)
        self.call_setups.append(record)
        caller = self._ensure_registered(caller_ip)
        callee = self._ensure_registered(callee_ip)
        self.sim.schedule_at(
            at_ms,
            lambda: self.sim.spawn(
                self._call(record, caller, callee, on_complete, media_duration_ms)
            ),
        )
        return record

    async def _call(
        self,
        record: CallSetupRecord,
        caller: Host,
        callee: Host,
        on_complete,
        media_duration_ms,
    ) -> None:
        """Fig. 8 top to bottom: the ping ladder, then relay selection."""
        record.started_ms = self.sim.now_ms
        tracer = obs.tracer()
        if tracer:
            tracer.clock = lambda: self.sim.now_ms
            record.trace = tracer.begin(
                "call",
                self.sim.now_ms,
                caller=str(record.caller),
                callee=str(record.callee),
                caller_as=caller.asn,
                callee_as=callee.asn,
            )
        failure = await self._ping(record, caller, callee)
        if failure is not None:
            return self._setup_failed(record, failure, on_complete)
        outcome, reason, completed_ms = await self._select_relay(record, caller, callee)
        self._setup_complete(
            record, outcome, on_complete, media_duration_ms, reason, completed_ms
        )

    async def _ping(self, record, caller: Host, callee: Host) -> Optional[str]:
        """Ping the callee, backed off on timeout; the failure reason, or
        None once it answered."""
        for attempt in range(self._policy.max_ping_attempts):
            ping_rtt = self._rtt_between(caller, callee)
            if ping_rtt is None:
                return "callee-unreachable"
            record.attempts += 1
            ping = record.trace.child(
                "setup.ping", self.sim.now_ms, attempt=attempt + 1
            )
            if await self._exchange(
                caller, callee.ip, "ping", self._policy.ping_timeout_ms, ping_rtt, ping
            ):
                ping.end(self.sim.now_ms, outcome="ok", rtt_ms=round(ping_rtt, 3))
                return None
            ping.end(self.sim.now_ms, outcome="timeout")
            obs.counter("runtime.ping_retries").inc()
            if attempt + 1 < self._policy.max_ping_attempts:
                await self.sim.sleep(self._policy.backoff_ms(attempt))
        return "ping-timeout"

    async def _select_relay(
        self, record, caller: Host, callee: Host
    ) -> Tuple[str, Optional[str], Optional[float]]:
        """Select → the two close-set legs → the parallel two-hop queries
        → relay pick; the setup's (outcome, reason, analytic completion)."""
        select = record.trace.child("setup.select", self.sim.now_ms)
        with obs.tracer().scope(select):
            session = self._system.call(caller.ip, callee.ip)
        selection = session.selection
        select.end(
            self.sim.now_ms,
            relay_needed=session.relay_needed,
            direct_rtt_ms=_finite(session.direct_rtt_ms),
            one_hop=len(selection.one_hop) if selection is not None else 0,
            two_hop=len(selection.two_hop) if selection is not None else 0,
            messages=selection.messages if selection is not None else 0,
        )
        record.session = session
        if not session.relay_needed:
            return "completed", None, None

        timing = _SetupTiming(anchor_ms=self.sim.now_ms)
        legs = await self.sim.gather(
            self._close_set_leg(record, timing, caller, callee, "own"),
            self._close_set_leg(record, timing, caller, callee, "peer"),
        )
        if not all(legs):
            return "degraded", "close-set-unavailable", None
        # Fig. 8 step 4: candidate surrogates' close sets, in parallel.
        if selection is not None:
            await self.sim.gather(
                *[
                    self._two_hop_query(record, timing, caller, candidate.cluster)
                    for candidate in selection.first_hops
                ]
            )

        completed_ms = None if timing.perturbed else timing.analytic_completed_ms
        relay = self._pick_relay(session)
        if record.trace:
            best = selection.best_rtt_ms() if selection is not None else None
            record.trace.point(
                "setup.relay_pick",
                self.sim.now_ms,
                relay=str(relay[1]) if relay is not None else None,
                cluster=relay[0] if relay is not None else None,
                chosen_rtt_ms=_finite(
                    session.best_path_rtt_ms if relay is not None else None
                ),
                best_candidate_rtt_ms=_finite(best),
                direct_rtt_ms=_finite(session.direct_rtt_ms),
            )
        if relay is not None:
            record.relay_cluster, record.relay_ip = relay
            return "completed", None, completed_ms
        had_candidates = selection is not None and (
            selection.one_hop or selection.two_hop
        )
        reason = "relay-offline" if had_candidates else "no-relay-candidates"
        return "degraded", reason, completed_ms

    def _surrogate_order(self, cluster: int, requester: IPv4Address):
        group = self._system.surrogate_group(cluster)
        if len(group) > 1:
            first = self._system.surrogate(cluster, requester=requester)
            group.sort(key=lambda s: (s.ip != first.ip, str(s.ip)))
        return group[: self._policy.max_close_set_attempts]

    async def _close_set_leg(
        self, record, timing: _SetupTiming, caller: Host, callee: Host, leg: str
    ) -> bool:
        """One close-set leg: ``"own"`` asks the caller's surrogate,
        ``"peer"`` asks the callee, who asks its own.

        The two legs run concurrently; each tries the serving surrogate
        first, then the remaining group members (§6.3 replicas) on
        timeout, and returns False once the group is exhausted.  A
        structurally unreachable surrogate contributes 0 ms and no
        retries (matching the analytic model: the set still arrives
        through the system state).
        """
        own = leg == "own"
        session = record.session
        cluster, requester = (
            (session.caller_cluster, caller.ip)
            if own
            else (session.callee_cluster, callee.ip)
        )
        for attempt in range(self._policy.max_close_set_attempts):
            # Re-read per attempt: a crash may have re-elected the group.
            order = self._surrogate_order(cluster, requester)
            if attempt >= len(order):
                break
            surrogate = order[attempt]
            self._ensure_registered(surrogate.ip)
            if own:
                dst_ip = surrogate.ip
                rtt = self._rtt_between(caller, surrogate.host)
            else:
                dst_ip = callee.ip
                rtt = self._rtt_between(caller, callee)
                callee_leg = self._rtt_between(callee, surrogate.host)
                if rtt is not None and callee_leg is not None:
                    rtt = rtt + callee_leg
            if rtt is None:
                # No route (for the peer leg: the callee vanished from
                # the routing fabric after the ping) — only possible
                # structurally, so no retry value.
                self.network.send(caller, dst_ip, "close-set-request", trace=record.trace)
                return True
            if attempt > 0:
                record.retries += 1
                obs.counter("runtime.close_set_retries").inc()
            else:
                timing.leg_rtt_ms[leg] = rtt
            span = record.trace.child(
                "setup.close_set",
                self.sim.now_ms,
                leg=leg,
                attempt=attempt + 1,
                surrogate=str(surrogate.ip),
            )
            timeout_ms = self._policy.close_set_timeout_ms
            if await self._exchange(
                caller, dst_ip, "close-set-request", timeout_ms, rtt, span
            ):
                span.end(self.sim.now_ms, outcome="ok", rtt_ms=round(rtt, 3))
                return True
            span.end(self.sim.now_ms, outcome="timeout")
            timing.perturbed = True
        return False

    async def _two_hop_query(
        self, record, timing: _SetupTiming, caller: Host, cluster: int
    ) -> None:
        """Ask one candidate cluster's surrogate for its close set."""
        surrogate = self._system.surrogate(cluster, requester=caller.ip)
        self._ensure_registered(surrogate.ip)
        rtt = self._rtt_between(caller, surrogate.host)
        if rtt is None:
            self.network.send(caller, surrogate.ip, "close-set-request", trace=record.trace)
            return
        timing.two_hop_ms = max(timing.two_hop_ms, rtt)
        query = record.trace.child(
            "setup.two_hop",
            self.sim.now_ms,
            cluster=cluster,
            surrogate=str(surrogate.ip),
        )
        timeout_ms = self._policy.two_hop_timeout_ms
        if await self._exchange(
            caller, surrogate.ip, "close-set-request", timeout_ms, rtt, query
        ):
            query.end(self.sim.now_ms, outcome="ok", rtt_ms=round(rtt, 3))
        else:
            query.end(self.sim.now_ms, outcome="timeout")
            timing.perturbed = True

    def _relay_candidate_clusters(self, session: ASAPSession) -> List[Tuple[float, int]]:
        """Failover candidate clusters, best relay-path RTT first."""
        return ranked_relay_clusters(session.selection)

    def _pick_relay(
        self, session: ASAPSession, exclude: Optional[Set[IPv4Address]] = None
    ) -> Optional[Tuple[int, IPv4Address]]:
        """Best candidate relay host that is online right now."""
        exclude = exclude or set()
        exclude = exclude | {session.caller, session.callee}
        for _, cluster in self._relay_candidate_clusters(session):
            for host in self._system.online_hosts_in_cluster(cluster):
                if host.ip in exclude or self.network.is_host_down(host.ip):
                    continue
                return cluster, host.ip
        return None

    def _setup_complete(
        self,
        record,
        outcome: str,
        on_complete,
        media_duration_ms,
        reason: Optional[str] = None,
        completed_ms: Optional[float] = None,
    ) -> None:
        record.completed_ms = self.sim.now_ms if completed_ms is None else completed_ms
        record.outcome = outcome
        record.failure_reason = reason
        obs.counter("runtime.call_setups").inc()
        if outcome == "degraded":
            obs.counter("runtime.call_setups_degraded").inc()
        if record.setup_ms is not None:
            obs.histogram("runtime.call_setup_ms").observe(record.setup_ms)
        record.trace.point(
            "setup.done",
            self.sim.now_ms,
            outcome=outcome,
            reason=reason,
            setup_ms=_finite(record.setup_ms),
            path=record.path,
            relay=str(record.relay_ip) if record.relay_ip is not None else None,
        )
        if on_complete is not None:
            on_complete(record)
        if media_duration_ms is not None:
            self._start_media(record, media_duration_ms)
        else:
            # No media rides this setup: the call's trace ends with it.
            record.trace.end(self.sim.now_ms, outcome=outcome)

    def _setup_failed(self, record, reason: str, on_complete) -> None:
        record.outcome = "failed"
        record.failure_reason = reason
        obs.counter("runtime.call_setups_failed").inc()
        obs.event(
            "call.failed",
            level="debug",
            caller=str(record.caller),
            callee=str(record.callee),
            reason=reason,
        )
        record.trace.end(self.sim.now_ms, outcome="failed", reason=reason)
        if on_complete is not None:
            on_complete(record)

    # -- in-call keepalives + relay failover ------------------------------------

    def _start_media(self, record: CallSetupRecord, duration_ms: float) -> None:
        session = record.session
        base_rtt = session.best_path_rtt_ms if session is not None else float("inf")
        if record.path == "direct" and session is not None:
            base_rtt = session.direct_rtt_ms
        media = MediaSessionRecord(
            caller=record.caller,
            callee=record.callee,
            started_ms=self.sim.now_ms,
            ends_ms=self.sim.now_ms + duration_ms,
            relay_cluster=record.relay_cluster,
            relay_ip=record.relay_ip,
            base_rtt_ms=float(base_rtt),
        )
        if session is not None:
            media.candidates = self._relay_candidate_clusters(session)
        media.call_trace = record.trace
        media.trace = record.trace.child(
            "media",
            self.sim.now_ms,
            path=record.path,
            relay=str(media.relay_ip) if media.relay_ip is not None else None,
            cluster=media.relay_cluster,
        )
        self.media_sessions.append(media)
        obs.counter("runtime.media_sessions").inc()
        if media.relay_ip is not None:
            self._ensure_registered(media.relay_ip)
            # Scheduled here, ahead of the sample ticks and the end-of-call
            # event below, so same-instant ties keep their order.
            self.sim.schedule(
                self._policy.keepalive_interval_ms,
                lambda: self.sim.spawn(self._keepalives(media, record)),
            )
        if self._media_plane is not None:
            media.media_call_id = len(self.media_sessions)
            self._sample_media_path(media)
            window = self._media_plane.window_ms
            tick = media.started_ms + window
            while tick < media.ends_ms:
                at = tick
                self.sim.schedule_at(at, lambda: self._sample_media_path(media))
                tick += window
        self.sim.schedule_at(media.ends_ms, lambda: self._finish_media(media))

    def _media_path_conditions(self, media: MediaSessionRecord):
        """Current (rtt_ms, loss_rate) of the media path — relay legs
        when relayed, the direct pair otherwise.  Pure reads: no RNG
        draws, no messages, so sampling never perturbs the event flow."""
        caller = self._ensure_registered(media.caller)
        callee = self._ensure_registered(media.callee)
        if media.relay_ip is not None:
            relay = self._ensure_registered(media.relay_ip)
            legs = [(caller, relay), (relay, callee)]
        else:
            legs = [(caller, callee)]
        rtt = 0.0
        survive = 1.0
        for src, dst in legs:
            leg_rtt = self._rtt_between(src, dst)
            if leg_rtt is None or not np.isfinite(leg_rtt):
                return None, 1.0
            rtt += leg_rtt
            survive *= 1.0 - self.network.loss_rate_between(src, dst)
        return rtt, 1.0 - survive

    def _sample_media_path(self, media: MediaSessionRecord) -> None:
        """Record the path's conditions as a session-relative segment."""
        if media.outcome != "active" or self.sim.now_ms >= media.ends_ms:
            return
        from repro.media.session import PathWindow

        rtt, loss = self._media_path_conditions(media)
        if rtt is None:
            # Structurally unreachable right now: keep the last known
            # RTT (frames in flight pace against it) but lose everything.
            rtt = media.path_windows[-1].rtt_ms if media.path_windows else media.base_rtt_ms
            if not np.isfinite(rtt):
                return
            loss = 1.0
        segment = PathWindow(
            start_ms=round(self.sim.now_ms - media.started_ms, 3),
            rtt_ms=float(rtt),
            loss_rate=float(loss),
        )
        last = media.path_windows[-1] if media.path_windows else None
        if last is None or (last.rtt_ms, last.loss_rate) != (segment.rtt_ms, segment.loss_rate):
            media.path_windows.append(segment)

    async def _keepalives(
        self, media: MediaSessionRecord, record: CallSetupRecord
    ) -> None:
        """Keepalive the relay every interval until the call ends; a
        missed one means relay lost → failover → (no candidate) degrade."""
        interval_ms = self._policy.keepalive_interval_ms
        timeout_ms = self._policy.keepalive_timeout_ms
        while (
            media.outcome == "active"
            and media.relay_ip is not None
            and self.sim.now_ms < media.ends_ms
        ):
            caller = self._ensure_registered(media.caller)
            relay_host = self._ensure_registered(media.relay_ip)
            media.keepalives += 1
            sent_at = self.sim.now_ms
            rtt = self._rtt_between(caller, relay_host)
            answered = await self._exchange(
                caller, media.relay_ip, "keepalive", timeout_ms, rtt, media.trace
            )
            if media.outcome != "active":
                return
            if answered:
                next_at = sent_at + interval_ms
            else:
                # The relay is presumed dead.
                obs.counter("runtime.keepalive_timeouts").inc()
                dead = media.relay_ip
                media.dead_relays.add(dead)
                detected = self.sim.now_ms
                media.trace.point("media.relay_lost", detected, relay=str(dead))
                if not await self._failover(media, record, dead, sent_at, detected):
                    return
                next_at = self.sim.now_ms + interval_ms
            if next_at >= media.ends_ms:
                return
            await self.sim.sleep_until(max(next_at, self.sim.now_ms))

    async def _failover(self, media, record, old_relay, outage_start, detected) -> bool:
        """Set up the next live relay candidate; False when none is left
        (the call degraded or dropped) or the call ended meanwhile."""
        while True:
            candidate = (
                self._pick_relay(record.session, exclude=media.dead_relays)
                if record.session is not None
                else None
            )
            if candidate is None:
                self._degrade_media(media, old_relay, outage_start, detected)
                return False
            cluster, ip = candidate
            caller = self._ensure_registered(media.caller)
            relay_host = self._ensure_registered(ip)
            rtt = self._rtt_between(caller, relay_host)
            timeout_ms = self._policy.keepalive_timeout_ms
            answered = await self._exchange(
                caller, ip, "relay-setup", timeout_ms, rtt, media.trace
            )
            if media.outcome != "active":
                return False
            if answered:
                break
            media.dead_relays.add(ip)
            media.trace.point(
                "media.failover_candidate_dead", self.sim.now_ms, candidate=str(ip)
            )
        restored = self.sim.now_ms
        event = FailoverEvent(
            detected_ms=detected,
            restored_ms=restored,
            old_relay=old_relay,
            new_relay=ip,
            interruption_ms=restored - outage_start,
        )
        media.failovers.append(event)
        media.outage_windows.append(OutageWindow(start_ms=outage_start, end_ms=restored))
        media.relay_cluster = cluster
        media.relay_ip = ip
        obs.counter("runtime.failovers").inc()
        obs.histogram("runtime.failover_ms").observe(event.failover_ms)
        obs.histogram("runtime.interruption_ms").observe(event.interruption_ms)
        media.trace.point(
            "media.failover",
            restored,
            old_relay=str(old_relay),
            new_relay=str(ip),
            cluster=cluster,
            detected_ms=round(detected, 3),
            failover_ms=round(event.failover_ms, 3),
            interruption_ms=round(event.interruption_ms, 3),
        )
        return True

    def _degrade_media(self, media, old_relay, outage_start, detected) -> None:
        """No surviving relay candidate: direct path, or drop the call."""
        restored = self.sim.now_ms
        caller = self._ensure_registered(media.caller)
        callee = self._ensure_registered(media.callee)
        direct = self._rtt_between(caller, callee)
        event = FailoverEvent(
            detected_ms=detected,
            restored_ms=restored,
            old_relay=old_relay,
            new_relay=None,
            interruption_ms=restored - outage_start,
        )
        media.failovers.append(event)
        obs.histogram("runtime.interruption_ms").observe(event.interruption_ms)
        if direct is not None and np.isfinite(direct):
            media.outage_windows.append(OutageWindow(start_ms=outage_start, end_ms=restored))
            media.degraded_to_direct = True
            media.relay_ip = None
            media.relay_cluster = None
            obs.counter("runtime.media_degraded").inc()
            media.trace.point(
                "media.degraded",
                restored,
                old_relay=str(old_relay),
                detected_ms=round(detected, 3),
                interruption_ms=round(event.interruption_ms, 3),
            )
            return
        # Nothing carries the call: it drops here.  The call is still
        # scored over its scheduled duration, with the undelivered tail
        # (through ends_ms) counted as outage.
        media.outage_windows.append(OutageWindow(start_ms=outage_start, end_ms=media.ends_ms))
        media.outcome = "dropped"
        obs.counter("runtime.media_dropped").inc()
        media.trace.point(
            "media.dropped",
            restored,
            old_relay=str(old_relay),
            detected_ms=round(detected, 3),
        )
        self._score_media(media)

    def _finish_media(self, media: MediaSessionRecord) -> None:
        if media.outcome != "active":
            return
        media.outcome = "finished"
        obs.counter("runtime.media_finished").inc()
        self._score_media(media)

    def _score_media(self, media: MediaSessionRecord) -> None:
        duration = max(media.duration_ms, 1e-9)
        base_mos = (
            mos_of_path(media.base_rtt_ms)
            if np.isfinite(media.base_rtt_ms)
            else 1.0
        )
        # Windows are recorded in absolute sim time, but account_outages
        # clips against [0, duration] — shift them call-relative first.
        windows = [
            OutageWindow(
                start_ms=w.start_ms - media.started_ms,
                end_ms=w.end_ms - media.started_ms,
            )
            for w in media.outage_windows
        ]
        media.impact = account_outages(
            base_mos=base_mos,
            duration_ms=duration,
            windows=windows,
        )
        obs.histogram("runtime.media_mos_dip").observe(media.impact.mos_dip)
        if self._media_plane is not None and media.path_windows:
            from repro.media.session import run_media_session

            result = run_media_session(
                call_id=media.media_call_id,
                duration_ms=duration,
                path=media.path_windows,
                outages=windows,
                config=self._media_plane,
                seed=self._media_seed,
                start_ms=media.started_ms,
                timeline=obs.timeline(),
                span=media.trace,
                call=f"{media.caller}-{media.callee}",
            )
            media.measured = result
            media.codec_switches = len(result.switches)
            obs.histogram("runtime.media_measured_mos").observe(result.score.mos)
            media.trace.point(
                "media.measured",
                self.sim.now_ms,
                mos=round(result.score.mos, 6),
                frames=len(result.trace.frames),
                switches=media.codec_switches,
                effective_loss=round(result.score.effective_loss, 6),
            )
        now = self.sim.now_ms
        media.trace.end(
            now,
            outcome=media.outcome,
            keepalives=media.keepalives,
            failovers=len(media.failovers),
            degraded_to_direct=media.degraded_to_direct,
            interruption_ms=round(media.interruption_ms_total, 3),
            mos_dip=round(media.impact.mos_dip, 6),
        )
        media.call_trace.end(now, outcome=media.outcome)

    # -- churn --------------------------------------------------------------------

    def fail_host(self, ip: IPv4Address):
        """Take a host down *now*: network silence + protocol departure.

        Used by the fault injector for crashes and churn.  Returns the
        promoted surrogate when the victim led its cluster.
        """
        self.network.set_host_down(ip)
        if ip not in self._scenario.population:
            return None
        promoted = self._system.leave(ip)
        if promoted is not None:
            cluster_index = self._system.cluster_of_ip(ip)
            self.surrogate_failures.append((self.sim.now_ms, cluster_index, promoted.ip))
        return promoted

    def schedule_leave(self, ip: IPv4Address, at_ms: float) -> None:
        """An end host leaves the system at a simulated time.

        Surrogate members trigger re-election (recorded alongside
        surrogate failures); ordinary members just drop off.  The host
        also goes silent on the network, so in-flight setups and
        keepalives aimed at it time out instead of succeeding.
        """
        self.sim.schedule_at(at_ms, lambda: self.fail_host(ip))

    def schedule_surrogate_failure(self, cluster_index: int, at_ms: float) -> None:
        """Kill a cluster's primary surrogate at a simulated time.

        Bootstraps appoint the next most capable host (§6.1's surrogate
        replacement); single-host clusters are left alone (their only
        member *is* the surrogate).
        """

        def fail() -> None:
            try:
                fresh = self._system.fail_surrogate(cluster_index)
            except ProtocolError:
                return
            self.surrogate_failures.append((self.sim.now_ms, cluster_index, fresh.ip))

        self.sim.schedule_at(at_ms, fail)

    # -- driving -----------------------------------------------------------------

    def run(self, until_ms: Optional[float] = None) -> None:
        """Drain the event queue (optionally bounded in simulated time)."""
        self.sim.run(until_ms=until_ms)

    def setup_times_ms(self) -> List[float]:
        """Setup durations of all completed call setups."""
        return [r.setup_ms for r in self.call_setups if r.setup_ms is not None]

    def pending_records(self) -> List:
        """Records that never reached a terminal outcome (should be none
        after a full :meth:`run`)."""
        hung: List = [j for j in self.joins if j.outcome == "pending"]
        hung += [c for c in self.call_setups if c.outcome == "pending"]
        hung += [m for m in self.media_sessions if m.outcome == "active"]
        return hung
