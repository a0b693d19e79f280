"""Event-driven ASAP deployment: the call flow over the simulated network.

:class:`ASAPSystem` computes *what* the protocol decides; this module
adds *when* — and *what happens when the network misbehaves*.  Joins
and calls run :func:`repro.core.dial.run_join` / :func:`run_dial` — the
one Fig. 8 flow the wire host agent runs too — over
:class:`~repro.sim.network.SimNetwork`: every exchange pays the latency
model's round trip and is guarded by a timeout.  The runtime supplies
what is particular to the simulator:

- *where answers come from*: an end host is located by its registration
  (no message); a close-set query is answered with the serving
  surrogate's set, built on first request; the callee forwards the peer
  leg's query to its own surrogate, so that exchange pays both legs.
  The sets themselves are computed in batches: :meth:`ASAPRuntime.run`
  names both endpoint clusters of every pending call and each sent
  close-set query names its serving cluster (:meth:`ASAPSystem.want`),
  so the first build computes every named set in one sweep;
- *which targets a retry tries*: close-set legs walk the cluster's
  surrogate group (§6.3's replicas), relays are the cluster's online
  hosts, most capable first, and selection counts online hosts only;
- scheduling, churn (:meth:`ASAPRuntime.fail_host` and friends, driven
  by :mod:`repro.faults`), and media scoring from the outage windows.

The headline measurement is **call setup time** — the paper's answer to
Skype's Limit 3: where Skype needs tens-to-hundreds of seconds of
probing to stabilize, ASAP's select-close-relay completes in a handful
of RTTs.  Every record terminates: calls end ``completed``, ``degraded``
(fell back to the direct path, recorded as such) or ``failed`` (with a
reason), media ``finished`` or ``dropped`` — nothing hangs on a dead
peer.
"""

from __future__ import annotations

from typing import Callable, List, NamedTuple, Optional

import numpy as np

from repro import obs
from repro.core.config import ASAPConfig
from repro.core.dial import (
    CATEGORY,
    DialResult,
    JoinRecord,
    MediaSessionRecord,
    run_dial,
    run_join,
)
from repro.core.protocol import ASAPSystem
from repro.core.surrogate import Surrogate
from repro.errors import ProtocolError
from repro.net.codec import (
    CallAccept,
    CallSetup,
    CloseSetQuery,
    Join,
    JoinOk,
    Keepalive,
    KeepaliveAck,
    Ping,
    Pong,
    RelayOk,
    RelaySetup,
)
from repro.netaddr import IPv4Address
from repro.scenario import Scenario
from repro.sim.engine import Simulator
from repro.sim.network import SimNetwork
from repro.topology.population import Host, NodalInfo
from repro.voip.outage import OutageWindow, account_outages
from repro.voip.quality import mos_of_path

__all__ = ["ASAPRuntime", "make_bootstrap_hosts"]

#: Dedicated bootstrap servers the simulated runtime synthesizes.
BOOTSTRAP_COUNT = 3


def make_bootstrap_hosts(scenario: Scenario, count: int) -> List[Host]:
    """Synthesize ``count`` dedicated bootstrap servers inside transit
    ASes (the simulated runtime's fleet; the wire overlay runs the first)."""
    hosts: List[Host] = []
    transit = scenario.topology.transit_ases()
    for index in range(count):
        asn = transit[index % len(transit)]
        prefixes = scenario.allocation.prefixes_of.get(asn)
        if not prefixes:
            raise ProtocolError(f"transit AS {asn} has no prefix for a bootstrap")
        hosts.append(
            Host(
                ip=prefixes[0].nth_address(10 + index),
                asn=asn,
                prefix=prefixes[0],
                access_delay_ms=1.0,
                info=NodalInfo(bandwidth_kbps=10**6, uptime_hours=10**4, cpu_score=100.0),
            )
        )
    return hosts


def _ignore(message) -> None:
    """Simulated hosts answer through :meth:`_SimPort.exchange`."""


#: How a simulated peer answers each request (close-set queries and joins
#: change protocol state, so :meth:`_SimPort._answer` handles those).
_REPLY = {
    Ping: lambda m: Pong(token=m.token),
    CallSetup: lambda m: CallAccept(call_id=m.call_id, accept=1),
    RelaySetup: lambda m: RelayOk(call_id=m.call_id),
    Keepalive: lambda m: KeepaliveAck(call_id=m.call_id, seq=m.seq),
}


class _Peer(NamedTuple):
    """A simulated exchange target: the host the request goes to, and the
    surrogate whose close set answers a close-set query there."""

    host: Host
    serves: Optional[Surrogate] = None


class ASAPRuntime:
    """Drives ASAP protocol flows through a discrete-event simulation."""

    def __init__(
        self,
        scenario: Scenario,
        config: Optional[ASAPConfig] = None,
    ) -> None:
        self._scenario = scenario
        self._config = config = config if config is not None else ASAPConfig()
        self._system = ASAPSystem(scenario, config)
        self.sim = Simulator()
        self.network = SimNetwork(self.sim, scenario.latency)
        self._bootstrap_hosts = make_bootstrap_hosts(scenario, BOOTSTRAP_COUNT)
        self.joins: List[JoinRecord] = []
        self.call_setups: List[DialResult] = []
        self.media_sessions: List[MediaSessionRecord] = []
        self.surrogate_failures: List = []
        for host in self._bootstrap_hosts:
            self.network.register(host, _ignore)

    @property
    def system(self) -> ASAPSystem:
        return self._system

    @property
    def bootstrap_hosts(self) -> List[Host]:
        return list(self._bootstrap_hosts)

    def _host(self, ip: IPv4Address) -> Host:
        """An end host, registered with the network on first use."""
        host = self.network.host(ip)
        if host is None:
            host = self._scenario.population.by_ip(ip)
            self.network.register(host, _ignore)
        return host

    # -- flows -----------------------------------------------------------------

    def schedule_join(self, ip: IPv4Address, at_ms: float = 0.0) -> JoinRecord:
        """Schedule an end host's join at a simulated time."""
        record = JoinRecord(ip=ip, started_ms=at_ms)
        self.joins.append(record)
        port = _SimPort(self, self._host(ip))
        self.sim.schedule_at(at_ms, lambda: self.sim.spawn(run_join(port, record)))
        return record

    def schedule_call(
        self,
        caller_ip: IPv4Address,
        callee_ip: IPv4Address,
        at_ms: float = 0.0,
        on_complete: Optional[Callable[[DialResult], None]] = None,
        media_duration_ms: Optional[float] = None,
    ) -> DialResult:
        """Schedule a call; its timing and outcome land in the returned
        record.  With ``media_duration_ms`` set, a successful setup
        carries keepalive-guarded media on the selected path for that
        long.  ``on_complete(record)`` runs when the call ends."""
        record = DialResult(
            caller=caller_ip,
            callee=callee_ip,
            call_id=len(self.call_setups),
            started_ms=at_ms,
        )
        self.call_setups.append(record)
        port = _SimPort(self, self._host(caller_ip))
        callee = self._host(callee_ip)

        async def call() -> None:
            await run_dial(port, record, callee, media_duration_ms)
            if on_complete is not None:
                on_complete(record)

        self.sim.schedule_at(at_ms, lambda: self.sim.spawn(call()))
        return record

    # -- media scoring -------------------------------------------------------------

    def _score_media(self, media: MediaSessionRecord) -> None:
        """Score the outage windows, then end the media span."""
        duration = max(media.duration_ms, 1e-9)
        base_mos = mos_of_path(media.base_rtt_ms) if np.isfinite(media.base_rtt_ms) else 1.0
        # Windows are recorded in absolute sim time, but account_outages
        # clips against [0, duration] — shift them call-relative first.
        windows = [
            OutageWindow(
                start_ms=w.start_ms - media.started_ms,
                end_ms=w.end_ms - media.started_ms,
            )
            for w in media.outage_windows
        ]
        media.impact = account_outages(base_mos=base_mos, duration_ms=duration, windows=windows)
        obs.histogram("runtime.media_mos_dip").observe(media.impact.mos_dip)
        media.trace.end(
            self.sim.now_ms,
            outcome=media.outcome,
            keepalives=media.keepalives,
            failovers=len(media.failovers),
            degraded_to_direct=media.degraded_to_direct,
            interruption_ms=round(media.interruption_ms_total, 3),
            mos_dip=round(media.impact.mos_dip, 6),
        )

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

    # -- driving -----------------------------------------------------------------

    def run(self, until_ms: Optional[float] = None) -> None:
        """Drain the event queue (optionally bounded in simulated time).

        Both endpoint clusters of every pending call are named as wanted
        first, so their close sets are computed in one sweep."""
        population, system = self._scenario.population, self._system
        system.want(
            system.cluster_of_ip(ip)
            for record in self.call_setups
            if record.outcome == "pending"
            for ip in (record.caller, record.callee)
            if ip in population
        )
        self.sim.run(until_ms=until_ms)

    def setup_times_ms(self) -> List[float]:
        """Setup durations of all call setups that completed."""
        return [r.setup_ms for r in self.call_setups if r.setup_ms is not None]

    def pending_records(self) -> List:
        """Records that never reached a terminal outcome (should be none
        after a full :meth:`run`)."""
        hung: List = [j for j in self.joins if j.outcome == "pending"]
        hung += [c for c in self.call_setups if c.outcome == "pending"]
        hung += [m for m in self.media_sessions if m.outcome == "active"]
        return hung


class _SimPort:
    """The call flow's port for one simulated end host (see
    :mod:`repro.core.dial`)."""

    namespace = "runtime"

    def __init__(self, runtime: ASAPRuntime, host: Host) -> None:
        self._runtime = runtime
        self._sim = sim = runtime.sim
        self._latency = runtime._scenario.latency
        self._network = runtime.network
        self.host = host
        self.address = str(host.ip)
        self.config = runtime._config
        self.gather = sim.gather
        self.cluster_sizes = runtime.system.online_sizes
        self.relay_hosts = runtime.system.online_hosts_in_cluster

    def now_ms(self) -> float:
        return self._sim.now_ms

    async def sleep_ms(self, ms: float) -> None:
        await self._sim.sleep(max(ms, 0.0))

    async def exchange(self, span, target: _Peer, message, timeout_ms: float):
        host, serves = target
        rtt = self._latency.host_rtt_ms(self.host, host)
        if serves is not None:
            # A close-set query: its set joins the next batch computed.
            self._runtime.system.want((serves.cluster,))
            if rtt is not None and serves.ip.value != host.ip.value:
                # The callee forwards the peer leg's query to its surrogate.
                onward = self._latency.host_rtt_ms(host, serves.host)
                rtt = None if onward is None else rtt + onward
        wait = self._sim.wait()
        answered = self._network.request(
            self.host,
            host.ip,
            CATEGORY[type(message)],
            timeout_ms=timeout_ms,
            rtt_ms=rtt,
            on_response=wait.resolve,
            on_timeout=wait.resolve,
            trace=span,
        )
        await wait
        return self._answer(span, target, message) if answered else None

    def _answer(self, span, target: _Peer, message):
        """The reply, produced as it arrives (so from the state then)."""
        kind = type(message)
        if kind is CloseSetQuery:
            if not span:
                return target.serves.serve_close_set()
            with obs.tracer().scope(span):  # lazy builds nest under the query
                return target.serves.serve_close_set()
        if kind is Join:
            surrogate = self._runtime.system.join(self.host.ip)
            return JoinOk(
                cluster=surrogate.cluster,
                surrogate_ip=surrogate.ip,
                surrogate_addr=str(surrogate.ip),
            )
        return _REPLY[kind](message)

    async def send(self, target: _Peer, message) -> None:
        self._network.send(self.host, target.host.ip, CATEGORY[type(message)])

    async def locate(self, ip: IPv4Address) -> _Peer:
        return _Peer(self._runtime._host(ip))

    def bootstrap(self, attempt: int) -> _Peer:
        hosts = self._runtime._bootstrap_hosts
        return _Peer(hosts[(self.host.ip.value + attempt) % len(hosts)])

    def publish_target(self, reply: JoinOk) -> _Peer:
        return _Peer(self._runtime._host(reply.surrogate_ip))

    def leg_target(self, call: DialResult, leg: str, attempt: int, callee: _Peer):
        """§6.3: the requester's serving surrogate first, then the rest of
        its cluster's group (re-read per attempt: a crash may have
        re-elected it)."""
        system = self._runtime.system
        requester = call.caller if leg == "own" else call.callee
        cluster = system.cluster_of_ip(requester)
        group = system.surrogate_group(cluster)
        if attempt >= len(group):
            return None
        if len(group) > 1:
            first = system.surrogate(cluster, requester=requester)
            group.sort(key=lambda s: (s.ip != first.ip, str(s.ip)))
        surrogate = group[attempt]
        host = self._runtime._host(surrogate.ip) if leg == "own" else callee.host
        return _Peer(host, surrogate), surrogate.ip

    async def surrogate_target(self, cluster: int):
        surrogate = self._runtime.system.surrogate(cluster, requester=self.host.ip)
        return _Peer(self._runtime._host(surrogate.ip), surrogate), surrogate.ip

    def close_set(self, reply):
        return reply

    async def voice(self, call: DialResult, media: MediaSessionRecord) -> None:
        """Hold the media until it ends."""
        runtime = self._runtime
        runtime.media_sessions.append(media)
        await runtime.sim.sleep_until(media.ends_ms)

    def finish_media(self, call: DialResult, media: MediaSessionRecord) -> None:
        self._runtime._score_media(media)
