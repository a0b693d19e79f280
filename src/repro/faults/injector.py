"""Apply a compiled fault schedule to a running ASAP runtime.

The injector turns each :class:`~repro.faults.schedule.FaultEvent` into
simulator events against the runtime's :class:`~repro.sim.network.SimNetwork`
and :class:`~repro.core.protocol.ASAPSystem`, and keeps a structured
**fault log**: one entry per applied (or skipped) fault, in simulated
time order, serializable to canonical JSON lines.  Two runs with the
same schedule over the same scenario produce byte-identical logs — the
determinism check chaos CI relies on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro import obs
from repro.faults.schedule import FaultEvent, FaultSchedule
from repro.netaddr import IPv4Address


@dataclass(frozen=True)
class FaultLogEntry:
    """One fault as actually applied to the runtime."""

    at_ms: float
    kind: str
    target: str
    outcome: str                      # "applied" | "skipped"
    detail: str = ""

    def to_json(self) -> str:
        doc = {
            "at_ms": self.at_ms,
            "kind": self.kind,
            "target": self.target,
            "outcome": self.outcome,
        }
        if self.detail:
            doc["detail"] = self.detail
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))


class FaultInjector:
    """Wires a :class:`FaultSchedule` into a runtime's simulator."""

    def __init__(self, runtime, schedule: FaultSchedule, directory=None) -> None:
        self._runtime = runtime
        self._schedule = schedule
        #: Optional :class:`~repro.control.directory.ShardedDirectory`
        #: for shard-down/up events (soak runs wire one in).
        self._directory = directory
        self.log: List[FaultLogEntry] = []
        self._installed = False

    @property
    def schedule(self) -> FaultSchedule:
        return self._schedule

    def install(self) -> int:
        """Schedule every fault event; returns the number installed.

        Must run before :meth:`runtime.run` drains the queue (events in
        the simulated past cannot be scheduled).  The network's loss
        sampler is reseeded from the schedule seed so loss draws — and
        therefore everything downstream — reproduce exactly.
        """
        if self._installed:
            raise RuntimeError("fault schedule already installed")
        self._installed = True
        self._runtime.network.reseed_loss(self._schedule.seed)
        for event in self._schedule.events:
            self._runtime.sim.schedule_at(event.at_ms, self._applier(event))
        obs.counter("faults.scheduled").inc(len(self._schedule.events))
        return len(self._schedule.events)

    def log_lines(self) -> List[str]:
        """The fault log as canonical JSON lines (byte-stable)."""
        return [entry.to_json() for entry in self.log]

    # -- event application -------------------------------------------------

    def _applier(self, event: FaultEvent):
        def apply() -> None:
            tracer = obs.tracer()
            # Blast radius resolves *before* application (a crashed
            # surrogate's identity is gone from system state afterwards).
            scope_ips, scope_asns = (
                self._fault_scope(event) if tracer else (set(), set())
            )
            outcome, detail = self._apply(event)
            self.log.append(
                FaultLogEntry(
                    at_ms=self._runtime.sim.now_ms,
                    kind=event.kind,
                    target=event.target,
                    outcome=outcome,
                    detail=detail,
                )
            )
            obs.counter("faults.injected").inc()
            obs.counter(f"faults.{event.kind}").inc()
            # ``kind`` would collide with the sink's own record-kind field.
            obs.event(
                "fault", level="debug", fault_kind=event.kind, target=event.target
            )
            if tracer:
                now = self._runtime.sim.now_ms
                span = tracer.begin(
                    "fault", now, kind=event.kind, target=event.target
                )
                span.end(
                    now,
                    outcome=outcome,
                    detail=detail,
                    disrupted=self._disrupted_traces(scope_ips, scope_asns),
                )

        return apply

    # -- trace linkage -----------------------------------------------------

    def _fault_scope(self, event: FaultEvent):
        """The (host ips, AS numbers) a fault directly touches."""
        runtime = self._runtime
        scope, _, value = event.target.partition(":")
        ips: set = set()
        asns: set = set()
        kind = event.kind
        if kind == "surrogate-crash":
            ips.add(runtime.system.surrogate(int(value)).ip)
        elif kind == "host-leave":
            ips.add(IPv4Address.from_string(value))
        elif kind in ("bootstrap-down", "bootstrap-up"):
            bootstraps = runtime.bootstrap_hosts
            index = int(value)
            if index < len(bootstraps):
                ips.add(bootstraps[index].ip)
        elif kind in ("as-down", "as-up"):
            asns.add(int(value))
        elif kind in ("loss-burst-start", "loss-burst-end") and scope != "net":
            asns.add(int(value))
        return ips, asns

    def _asn_of(self, ip: IPv4Address) -> Optional[int]:
        host = self._runtime.network.host(ip)
        return host.asn if host is not None else None

    def _disrupted_traces(self, ips: set, asns: set) -> List[str]:
        """Trace ids of in-flight flows inside the fault's blast radius.

        Pending joins and call setups plus active media sessions whose
        endpoints (or current relay) sit on a failed host or inside a
        failed AS — the causal link the analyzer uses to hang fault
        events onto the per-call timelines they disrupt.
        """
        runtime = self._runtime
        disrupted: List[str] = []
        seen: set = set()

        def touch(span, *endpoints) -> None:
            trace_id = getattr(span, "trace_id", None)
            if trace_id is None or trace_id in seen:
                return
            for ip in endpoints:
                if ip is None:
                    continue
                if ip in ips or (asns and self._asn_of(ip) in asns):
                    seen.add(trace_id)
                    disrupted.append(trace_id)
                    return

        for join in runtime.joins:
            if join.outcome == "pending":
                touch(join.trace, join.ip)
        for call in runtime.call_setups:
            if call.outcome == "pending":
                touch(call.trace, call.caller, call.callee, call.relay_ip)
        for media in runtime.media_sessions:
            if media.outcome == "active":
                touch(media.trace, media.caller, media.callee, media.relay_ip)
        return disrupted

    def _apply(self, event: FaultEvent):
        runtime = self._runtime
        network = runtime.network
        kind = event.kind
        scope, _, value = event.target.partition(":")

        if kind == "surrogate-crash":
            cluster_index = int(value)
            primary = runtime.system.surrogate(cluster_index)
            if not runtime.system.is_online(primary.ip):
                return "skipped", "surrogate already offline"
            promoted = runtime.fail_host(primary.ip)
            detail = f"crashed {primary.ip}"
            if promoted is not None:
                detail += f", promoted {promoted.ip}"
            return "applied", detail

        if kind == "host-leave":
            ip = IPv4Address.from_string(value)
            if not runtime.system.is_online(ip):
                return "skipped", "already offline"
            promoted = runtime.fail_host(ip)
            return "applied", f"promoted {promoted.ip}" if promoted is not None else ""

        if kind in ("bootstrap-down", "bootstrap-up"):
            index = int(value)
            bootstraps = runtime.bootstrap_hosts
            if index >= len(bootstraps):
                return "skipped", f"only {len(bootstraps)} bootstraps"
            ip = bootstraps[index].ip
            if kind == "bootstrap-down":
                network.set_host_down(ip)
            else:
                network.set_host_up(ip)
            return "applied", str(ip)

        if kind == "as-down":
            network.set_as_down(int(value))
            return "applied", ""
        if kind == "as-up":
            network.set_as_up(int(value))
            return "applied", ""

        if kind == "loss-burst-start":
            asn = None if scope == "net" else int(value)
            network.push_loss(event.value or 0.0, asn=asn)
            return "applied", f"rate={event.value}"
        if kind == "loss-burst-end":
            asn = None if scope == "net" else int(value)
            network.pop_loss(event.value or 0.0, asn=asn)
            return "applied", ""

        if kind == "background-loss":
            network.set_background_loss(event.value or 0.0)
            return "applied", f"rate={event.value}"

        if kind in ("shard-down", "shard-up"):
            if self._directory is None:
                return "skipped", "no sharded directory"
            shard = int(value)
            if shard >= self._directory.shard_count:
                return "skipped", f"only {self._directory.shard_count} shards"
            if kind == "shard-down":
                self._directory.set_shard_down(shard, runtime.sim.now_ms)
            else:
                self._directory.set_shard_up(shard, runtime.sim.now_ms)
            return "applied", ""

        return "skipped", f"unknown kind {kind!r}"
