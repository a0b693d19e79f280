"""Simulated network: host-to-host exchanges over the latency model.

Messages carry no payload: the caller produces the answer itself (see
:class:`repro.core.runtime._SimPort`), and the network decides only
whether and when an exchange completes.  Messages to unreachable hosts
are silently dropped (like UDP into a failed AS).  Per-category message
counters feed the overhead metric (paper Fig. 18).

Besides fire-and-forget :meth:`SimNetwork.send`, which only counts and
drops, the network supports **request/response** exchanges
(:meth:`SimNetwork.request`) with per-call timeouts — the primitive the
fault-tolerant runtime's retry state machines are built on — and three
fault dimensions the injector (:mod:`repro.faults`) drives:

- *down hosts* (crashed/churned peers, bootstrap outages);
- *down ASes* (mid-run AS failures: anything to or from the AS drops);
- *loss* (a uniform background rate plus time-windowed bursts, sampled
  from a seeded generator so runs reproduce exactly).

Fault checks happen at send time, in a fixed order (unregistered →
host-down → AS-down → unreachable → loss), so a run's drop record is a
pure function of the schedule and seed.  With no faults configured the
loss sampler is never consulted.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro import obs
from repro.measurement.latency import LatencyModel
from repro.netaddr import IPv4Address
from repro.sim.engine import Simulator
from repro.topology.population import Host
from repro.util.rng import derive_rng


class SimNetwork:
    """Carries exchanges between registered hosts through the simulator."""

    def __init__(self, sim: Simulator, latency: LatencyModel, seed: int = 0) -> None:
        self._sim = sim
        self._latency = latency
        self._hosts: Dict[IPv4Address, Host] = {}
        self.sent_by_category: Counter = Counter()
        self.dropped = 0
        self.dropped_by_reason: Counter = Counter()
        self.timeouts_by_category: Counter = Counter()
        self._down_hosts: Set[IPv4Address] = set()
        self._down_ases: Set[int] = set()
        self._background_loss = 0.0
        #: Active loss bursts as (rate, asn-or-None); pushed/popped by the
        #: fault injector at burst boundaries.
        self._active_loss: List[Tuple[float, Optional[int]]] = []
        self._loss_rng = derive_rng(seed, "sim-network-loss")

    @property
    def total_sent(self) -> int:
        return sum(self.sent_by_category.values())

    @property
    def total_timeouts(self) -> int:
        return sum(self.timeouts_by_category.values())

    def register(self, host: Host) -> None:
        """Attach a host to the network."""
        self._hosts[host.ip] = host

    # -- fault state (driven by repro.faults.FaultInjector) -----------------

    def reseed_loss(self, seed: int) -> None:
        """Re-derive the loss sampler (fault schedules pin their seed)."""
        self._loss_rng = derive_rng(seed, "sim-network-loss")

    def set_host_down(self, ip: IPv4Address) -> None:
        """Take a host off the network (crash/churn/outage)."""
        self._down_hosts.add(ip)

    def set_host_up(self, ip: IPv4Address) -> None:
        self._down_hosts.discard(ip)

    def set_as_down(self, asn: int) -> None:
        """Fail a whole AS: traffic to or from it drops."""
        self._down_ases.add(asn)

    def set_as_up(self, asn: int) -> None:
        self._down_ases.discard(asn)

    def set_background_loss(self, rate: float) -> None:
        """Uniform message-loss probability applied to every delivery."""
        self._background_loss = rate

    def push_loss(self, rate: float, asn: Optional[int] = None) -> None:
        """Begin a loss burst (global, or scoped to one AS)."""
        self._active_loss.append((rate, asn))

    def pop_loss(self, rate: float, asn: Optional[int] = None) -> None:
        """End a previously pushed loss burst (no-op if absent)."""
        try:
            self._active_loss.remove((rate, asn))
        except ValueError:
            pass

    def loss_rate_between(self, src: Host, dst: Host) -> float:
        """Current per-leg loss probability for a (src, dst) pair."""
        rate = self._background_loss
        for burst_rate, asn in self._active_loss:
            if asn is None or asn == src.asn or asn == dst.asn:
                rate = max(rate, burst_rate)
        return rate

    def _drop_reason(self, src: Host, dst_ip: IPv4Address, rtt: Optional[float]) -> Optional[str]:
        """Why a message would drop right now, or None if deliverable.

        Checks run in a fixed order so drop accounting is deterministic;
        the loss draw happens only when a nonzero rate is in force.
        """
        dst = self._hosts.get(dst_ip)
        if dst is None:
            return "unregistered"
        if dst_ip in self._down_hosts or src.ip in self._down_hosts:
            return "host-down"
        if dst.asn in self._down_ases or src.asn in self._down_ases:
            return "as-down"
        if rtt is None:
            return "unreachable"
        rate = self.loss_rate_between(src, dst)
        if rate > 0.0 and self._loss_rng.random() < rate:
            return "loss"
        return None

    def _record_drop(self, reason: str) -> None:
        self.dropped += 1
        self.dropped_by_reason[reason] += 1
        obs.counter("net.dropped").inc()

    # -- delivery -----------------------------------------------------------

    def send(self, src: Host, dst_ip: IPv4Address, category: str) -> bool:
        """Send a one-way message; returns False if it was dropped.

        Every send is counted (overhead is measured at the sender, like
        the paper counting probe traffic), but delivery requires the
        destination to be registered, up, and reachable.  Nothing waits
        for a one-way message, so its arrival schedules no event.
        """
        self.sent_by_category[category] += 1
        dst = self._hosts.get(dst_ip)
        rtt = self._latency.host_rtt_ms(src, dst) if dst is not None else None
        reason = self._drop_reason(src, dst_ip, rtt)
        if reason is not None:
            self._record_drop(reason)
            return False
        return True

    def request(
        self,
        src: Host,
        dst_ip: IPv4Address,
        category: str,
        *,
        timeout_ms: float,
        on_response: Callable[[], None],
        on_timeout: Optional[Callable[[], None]] = None,
        rtt_ms: Optional[float] = None,
        trace=None,
    ) -> bool:
        """A request that expects an answer one round trip later.

        The request itself is counted under ``category`` (responses ride
        free, matching the paper's sender-side overhead accounting).  On
        success ``on_response`` fires after the full round-trip time
        (``rtt_ms`` when given — callers use it to model compound legs
        like caller→callee→callee's-surrogate — else the latency model's
        host RTT).  If the exchange cannot complete — destination down,
        its AS failed, no route, or a loss draw eats either leg —
        ``on_timeout`` fires after ``timeout_ms`` instead and the loss is
        visible in :attr:`timeouts_by_category`.  Returns True when the
        response was scheduled.

        Fault state is evaluated at send time (the deterministic choice;
        in-flight responses never race fault events).  With a live
        ``trace`` span a ``net.request`` child covers the exchange —
        closed at response time on success, or spanning the full timeout
        on failure with the drop reason — without scheduling any extra
        simulator events.
        """
        self.sent_by_category[category] += 1
        dst = self._hosts.get(dst_ip)
        rtt = rtt_ms
        if rtt is None and dst is not None:
            rtt = self._latency.host_rtt_ms(src, dst)
        reason = self._drop_reason(src, dst_ip, rtt)
        if reason is None and dst is not None:
            # Response leg rides the same conditions; sample loss again.
            rate = self.loss_rate_between(src, dst)
            if rate > 0.0 and self._loss_rng.random() < rate:
                reason = "loss"
        now = self._sim.now_ms
        net_span = (
            trace.child(
                "net.request",
                now,
                category=category,
                src_as=src.asn,
                dst_as=dst.asn if dst is not None else None,
            )
            if trace
            else None
        )
        if reason is not None:
            self._record_drop(reason)
            self.timeouts_by_category[category] += 1
            obs.counter("net.timeouts").inc()
            if net_span is not None:
                # The caller observes silence until its timer fires; the
                # span covers that whole wait (no extra sim event needed
                # — the end time is known at send time).
                net_span.end(now + timeout_ms, outcome="timeout", dropped=reason)
            if on_timeout is not None:
                self._sim.schedule(timeout_ms, on_timeout)
            return False
        def respond() -> None:
            if net_span is not None:
                net_span.end(self._sim.now_ms, outcome="response", rtt_ms=round(rtt, 3))
            on_response()

        self._sim.schedule(rtt, respond)
        return True

    def host(self, ip: IPv4Address) -> Optional[Host]:
        return self._hosts.get(ip)
