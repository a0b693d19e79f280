"""DES runner for one Skype-like calling session.

Each direction (caller→callee, callee→caller) runs an independent
probe/switch state machine — the paper observed *asymmetric sessions*
whose two directions use different major paths.  Control-plane events
(probe batches, switches) are event-driven; voice packets are
synthesized from carrier intervals at the configured packet rate and
recorded into a :class:`~repro.sim.trace.SessionTrace` exactly as a
capture at the two end hosts would see them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro import obs
from repro.obs.trace import NULL_TRACE_SPAN
from repro.errors import MeasurementError
from repro.measurement.latency import LatencyModel
from repro.netaddr import IPv4Address
from repro.scenario import Scenario
from repro.sim.engine import Simulator
from repro.sim.trace import PacketRecord, SessionTrace
from repro.skype.supernode import SkypeConfig, SupernodeOverlay
from repro.topology.population import Host
from repro.util.rng import derive_rng

VOICE_PORT = 31337
PROBE_PORT = 33033


@dataclass
class _CarrierInterval:
    """A stretch of time during which one path carried the voice stream."""

    start_ms: float
    end_ms: Optional[float]
    relay_ip: Optional[IPv4Address]  # None = direct path


@dataclass
class SkypeSessionResult:
    """Trace plus simulator-side ground truth (tests only; the analyzer
    must work from the trace alone)."""

    trace: SessionTrace
    direct_rtt_ms: Optional[float]
    forward_intervals: List[_CarrierInterval]
    backward_intervals: List[_CarrierInterval]
    forward_probes: List[Tuple[float, IPv4Address]]
    backward_probes: List[Tuple[float, IPv4Address]]


class _DirectionMachine:
    """Probe/switch state machine for one traffic direction."""

    def __init__(
        self,
        sim: Simulator,
        src: Host,
        dst: Host,
        overlay: SupernodeOverlay,
        latency: LatencyModel,
        config: SkypeConfig,
        rng: np.random.Generator,
        trace=NULL_TRACE_SPAN,
    ) -> None:
        self._sim = sim
        self._src = src
        self._dst = dst
        self._overlay = overlay
        self._latency = latency
        self._config = config
        self._rng = rng
        self._trace = trace
        self.probes: List[Tuple[float, IPv4Address]] = []
        self.intervals: List[_CarrierInterval] = []
        self._probed_ips: set = set()
        self._background_sent = 0

        direct = latency.host_rtt_ms(src, dst)
        self._current_rtt = direct if direct is not None else float("inf")
        # The *true* path RTT of the current carrier — never consulted by
        # the protocol (decisions ride the noisy measurements, Limit 1's
        # mechanism); the trace layer reports it for the L1 gap.
        self._current_true_rtt = self._current_rtt
        self.intervals.append(_CarrierInterval(0.0, None, None))
        # Skype always tests relay candidates at start-up, even when the
        # direct path is eventually kept.
        sim.schedule(0.0, self._probe_batch)

    # -- probing -------------------------------------------------------------

    def _relay_path_rtt(self, relay: Host) -> Optional[float]:
        return self._latency.one_hop_relay_rtt_ms(self._src, relay, self._dst)

    def _probe_batch(self) -> None:
        exclude = self._probed_ips | {self._src.ip, self._dst.ip}
        batch = self._overlay.discover(self._rng, self._config.batch_size, exclude)
        for relay in batch:
            if len(self.probes) >= self._config.max_probes:
                break
            self._launch_probe(relay)
        if (
            self._current_rtt > self._config.target_rtt_ms
            and len(self.probes) < self._config.max_probes
        ):
            self._sim.schedule(self._config.batch_interval_ms, self._probe_batch)
        else:
            self._sim.schedule(self._config.background_interval_ms, self._background_probe)

    def _background_probe(self) -> None:
        if self._background_sent >= self._config.max_background_probes:
            return
        self._background_sent += 1
        exclude = self._probed_ips | {self._src.ip, self._dst.ip}
        for relay in self._overlay.discover(self._rng, 1, exclude):
            self._launch_probe(relay)
        self._sim.schedule(self._config.background_interval_ms, self._background_probe)

    def _launch_probe(self, relay: Host) -> None:
        self._probed_ips.add(relay.ip)
        self.probes.append((self._sim.now_ms, relay.ip))
        rtt = self._relay_path_rtt(relay)
        if rtt is None:
            self._trace.point(
                "skype.probe",
                self._sim.now_ms,
                relay=str(relay.ip),
                relay_as=relay.asn,
                path_rtt_ms=None,
                measured_rtt_ms=None,
            )
            return  # probe lost — relay unreachable
        # One probe = one noisy RTT sample; the client decides on the
        # measured value (Limit 1's mechanism), but the answer arrives
        # one true relay-path round trip later.
        if self._config.probe_noise_sigma > 0:
            measured = rtt * float(
                self._rng.lognormal(0.0, self._config.probe_noise_sigma)
            )
        else:
            measured = rtt
        self._trace.point(
            "skype.probe",
            self._sim.now_ms,
            relay=str(relay.ip),
            relay_as=relay.asn,
            path_rtt_ms=round(rtt, 3),
            measured_rtt_ms=round(measured, 3),
        )
        self._sim.schedule(rtt, lambda: self._probe_result(relay, measured, rtt))

    def _probe_result(
        self, relay: Host, measured_rtt: float, true_rtt: float
    ) -> None:
        if measured_rtt < self._current_rtt * (1.0 - self._config.switch_margin):
            self._switch_to(relay, measured_rtt, true_rtt)

    def _switch_to(self, relay: Host, rtt: float, true_rtt: float) -> None:
        now = self._sim.now_ms
        self.intervals[-1].end_ms = now
        self.intervals.append(_CarrierInterval(now, None, relay.ip))
        self._current_rtt = rtt
        self._current_true_rtt = true_rtt
        self._trace.point(
            "skype.switch",
            now,
            relay=str(relay.ip),
            measured_rtt_ms=round(rtt, 3),
            path_rtt_ms=round(true_rtt, 3),
        )
        if self._config.relay_mean_lifetime_ms is not None:
            lifetime = float(
                self._rng.exponential(self._config.relay_mean_lifetime_ms)
            )
            self._sim.schedule(lifetime, lambda: self._relay_died(relay.ip))

    def _relay_died(self, relay_ip: IPv4Address) -> None:
        """The carrying relay quit mid-call: fall back to the direct
        path and immediately start a fresh probing round."""
        if self.intervals[-1].relay_ip != relay_ip:
            return  # already switched away; nothing to do
        now = self._sim.now_ms
        self.intervals[-1].end_ms = now
        self.intervals.append(_CarrierInterval(now, None, None))
        direct = self._latency.host_rtt_ms(self._src, self._dst)
        self._current_rtt = direct if direct is not None else float("inf")
        self._current_true_rtt = self._current_rtt
        self._probed_ips.add(relay_ip)  # never re-probe the dead relay
        self._trace.point("skype.relay_died", now, relay=str(relay_ip))
        self._sim.schedule(0.0, self._probe_batch)

    def finish(self, end_ms: float) -> None:
        self.intervals[-1].end_ms = end_ms
        final = self.intervals[-1]
        true_rtt = self._current_true_rtt
        self._trace.end(
            end_ms,
            final_relay=str(final.relay_ip) if final.relay_ip is not None else None,
            final_rtt_ms=round(true_rtt, 3) if np.isfinite(true_rtt) else None,
            bounces=len(self.intervals) - 1,
            stabilized_ms=round(final.start_ms, 3),
            probes=len(self.probes),
        )


def run_skype_session(
    scenario: Scenario,
    caller_ip: IPv4Address,
    callee_ip: IPv4Address,
    overlay: Optional[SupernodeOverlay] = None,
    config: Optional[SkypeConfig] = None,
    duration_ms: float = 400_000.0,
    session_id: int = 0,
) -> SkypeSessionResult:
    """Simulate one Skype-like session and capture its packet trace."""
    if config is None:
        config = SkypeConfig()
    population = scenario.population
    caller = population.by_ip(caller_ip)
    callee = population.by_ip(callee_ip)
    if overlay is None:
        overlay = SupernodeOverlay(population, config)

    sim = Simulator()
    tracer = obs.tracer()
    root = NULL_TRACE_SPAN
    if tracer:
        tracer.clock = lambda: sim.now_ms
        direct = scenario.latency.host_rtt_ms(caller, callee)
        root = tracer.begin(
            "skype.call",
            0.0,
            session_id=session_id,
            caller=str(caller_ip),
            callee=str(callee_ip),
            caller_as=caller.asn,
            callee_as=callee.asn,
            direct_rtt_ms=round(direct, 3) if direct is not None else None,
        )
    rng_fwd = derive_rng(config.seed, "skype-fwd", str(session_id))
    rng_bwd = derive_rng(config.seed, "skype-bwd", str(session_id))
    forward = _DirectionMachine(
        sim, caller, callee, overlay, scenario.latency, config, rng_fwd,
        trace=root.child("skype.direction", 0.0, direction="fwd"),
    )
    backward = _DirectionMachine(
        sim, callee, caller, overlay, scenario.latency, config, rng_bwd,
        trace=root.child("skype.direction", 0.0, direction="bwd"),
    )
    sim.run(until_ms=duration_ms)
    forward.finish(duration_ms)
    backward.finish(duration_ms)
    root.end(duration_ms, probes=len(forward.probes) + len(backward.probes))

    trace = SessionTrace(session_id=session_id, caller=caller_ip, callee=callee_ip)
    _synthesize_voice(trace, forward, caller, callee, config, at_caller=True)
    _synthesize_voice(trace, backward, callee, caller, config, at_caller=False)
    _record_probes(trace, forward, caller, config, at_caller=True)
    _record_probes(trace, backward, callee, config, at_caller=False)

    return SkypeSessionResult(
        trace=trace,
        direct_rtt_ms=scenario.latency.host_rtt_ms(caller, callee),
        forward_intervals=forward.intervals,
        backward_intervals=backward.intervals,
        forward_probes=forward.probes,
        backward_probes=backward.probes,
    )


def _synthesize_voice(
    trace: SessionTrace,
    machine: _DirectionMachine,
    src: Host,
    dst: Host,
    config: SkypeConfig,
    at_caller: bool,
) -> None:
    """Expand carrier intervals into voice packet records at the sender."""
    step = config.voice_packet_interval_ms
    for interval in machine.intervals:
        end = interval.end_ms
        if end is None:
            raise MeasurementError("unfinished carrier interval")
        t = interval.start_ms
        first_hop = interval.relay_ip if interval.relay_ip is not None else dst.ip
        while t < end:
            packet = PacketRecord(
                time_ms=t,
                src_ip=src.ip,
                src_port=VOICE_PORT,
                dst_ip=first_hop,
                dst_port=VOICE_PORT,
                size_bytes=config.voice_payload_bytes,
                kind="voice",
            )
            if at_caller:
                trace.record_at_caller(packet)
            else:
                trace.record_at_callee(packet)
            t += step


def _record_probes(
    trace: SessionTrace,
    machine: _DirectionMachine,
    src: Host,
    config: SkypeConfig,
    at_caller: bool,
) -> None:
    for time_ms, relay_ip in machine.probes:
        packet = PacketRecord(
            time_ms=time_ms,
            src_ip=src.ip,
            src_port=PROBE_PORT,
            dst_ip=relay_ip,
            dst_port=PROBE_PORT,
            size_bytes=config.probe_payload_bytes,
            kind="probe",
        )
        if at_caller:
            trace.record_at_caller(packet)
        else:
            trace.record_at_callee(packet)
