"""Trace analyzer — the simulated counterpart of the paper's pcap study.

Works strictly from :class:`~repro.sim.trace.SessionTrace` packet records
plus the public data sources the paper also used: the BGP prefix→AS
table (to spot same-AS probes, Limit 2) and King estimates (to score
probed relay paths, Limit 1).  It never touches simulator internals.

Definitions follow Section 5:

- **major relay / major path** — the node carrying the dominant share of
  a direction's voice packets after start-up ("more than 90%" in the
  paper's sessions);
- **stabilization time** — "the duration from session start to the time
  when major relay nodes are constantly used";
- **relay bounce** — carrier switches before stabilization;
- **asymmetric session** — forward and backward majors differ.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.bgp.prefix_table import PrefixOriginTable
from repro.measurement.latency import RELAY_DELAY_RTT_MS
from repro.measurement.tools import KingEstimator
from repro.netaddr import IPv4Address
from repro.sim.trace import PacketRecord, SessionTrace
from repro.topology.population import PeerPopulation

#: Packets at least this large are treated as voice by the analyzer
#: (probes are small control datagrams) — a size heuristic, as used on
#: real captures of an encrypted protocol.
VOICE_SIZE_THRESHOLD = 100


@dataclass
class DirectionAnalysis:
    """What the analyzer concludes about one traffic direction."""

    sender: IPv4Address
    receiver: IPv4Address
    major_carrier: Optional[IPv4Address]     # None = direct path
    major_share: float
    stabilization_ms: float
    relay_switches: int
    probed_nodes: List[IPv4Address]
    probed_after_stabilization: List[IPv4Address]
    voice_packets: int

    @property
    def uses_relay(self) -> bool:
        return self.major_carrier is not None

    @property
    def total_probed(self) -> int:
        return len(self.probed_nodes)


@dataclass
class SessionAnalysis:
    """Full analysis of one captured session."""

    session_id: int
    forward: DirectionAnalysis
    backward: DirectionAnalysis
    same_as_probes: Dict[int, List[IPv4Address]] = field(default_factory=dict)

    @property
    def asymmetric(self) -> bool:
        """Different major paths in the two directions (paper §5.1)."""
        return self.forward.major_carrier != self.backward.major_carrier

    @property
    def stabilization_ms(self) -> float:
        """Session stabilization = the slower of the two directions."""
        return max(self.forward.stabilization_ms, self.backward.stabilization_ms)

    @property
    def total_probed(self) -> int:
        """Distinct relay nodes probed by either endpoint."""
        return len(set(self.forward.probed_nodes) | set(self.backward.probed_nodes))


class TraceAnalyzer:
    """Analyzes session traces with public BGP data and King estimates."""

    def __init__(
        self,
        prefix_table: PrefixOriginTable,
        king: Optional[KingEstimator] = None,
        population: Optional[PeerPopulation] = None,
    ) -> None:
        self._prefix_table = prefix_table
        self._king = king
        self._population = population

    @property
    def king(self) -> Optional[KingEstimator]:
        return self._king

    @property
    def population(self) -> Optional[PeerPopulation]:
        return self._population

    # -- per-direction analysis --------------------------------------------

    def analyze_direction(
        self, trace: SessionTrace, sender: IPv4Address, receiver: IPv4Address
    ) -> DirectionAnalysis:
        packets = trace.packets_sent_by(sender)
        voice = [p for p in packets if p.size_bytes >= VOICE_SIZE_THRESHOLD]
        probes = [p for p in packets if p.size_bytes < VOICE_SIZE_THRESHOLD]

        carriers = [p.dst_ip for p in voice]
        counts = Counter(carriers)
        if counts:
            major_ip, major_count = counts.most_common(1)[0]
            major_share = major_count / len(carriers)
        else:
            major_ip, major_share = receiver, 0.0
        major_carrier = None if major_ip == receiver else major_ip

        stabilization = _stabilization_time(voice, major_ip)
        switches = _carrier_switches(voice)

        probed = _distinct_ordered(p.dst_ip for p in probes if p.dst_ip != receiver)
        probed_after = _distinct_ordered(
            p.dst_ip
            for p in probes
            if p.dst_ip != receiver and p.time_ms > stabilization
        )
        return DirectionAnalysis(
            sender=sender,
            receiver=receiver,
            major_carrier=major_carrier,
            major_share=major_share,
            stabilization_ms=stabilization,
            relay_switches=switches,
            probed_nodes=probed,
            probed_after_stabilization=probed_after,
            voice_packets=len(voice),
        )

    def analyze(self, trace: SessionTrace) -> SessionAnalysis:
        forward = self.analyze_direction(trace, trace.caller, trace.callee)
        backward = self.analyze_direction(trace, trace.callee, trace.caller)
        return SessionAnalysis(
            session_id=trace.session_id,
            forward=forward,
            backward=backward,
            same_as_probes=self._same_as_groups(
                forward.probed_nodes + backward.probed_nodes
            ),
        )

    # -- limit 2: same-AS probes --------------------------------------------

    def _same_as_groups(self, probed: List[IPv4Address]) -> Dict[int, List[IPv4Address]]:
        """ASes in which more than one distinct relay node was probed."""
        by_as: Dict[int, List[IPv4Address]] = defaultdict(list)
        for ip in _distinct_ordered(probed):
            asn = self._prefix_table.origin_of(ip)
            if asn is not None:
                by_as[asn].append(ip)
        return {asn: ips for asn, ips in by_as.items() if len(ips) > 1}

    # -- limit 1: probed relay path RTT estimates (Fig. 6) --------------------

    def relay_time_series(
        self, trace: SessionTrace, sender: IPv4Address, receiver: IPv4Address
    ) -> List[Tuple[float, IPv4Address, Optional[float]]]:
        """(probe time, relay IP, estimated relay-path RTT) per probe.

        Estimation follows the paper's method exactly: King the two legs
        and add the 40 ms relay delay.  Requires a King estimator and
        the IP→host registry (None entries mean King got no answer).
        """
        if self._king is None or self._population is None:
            raise ValueError("relay_time_series needs a KingEstimator and population")
        try:
            src = self._population.by_ip(sender)
            dst = self._population.by_ip(receiver)
        except Exception:
            return []
        series: List[Tuple[float, IPv4Address, Optional[float]]] = []
        packets = trace.packets_sent_by(sender)
        for p in packets:
            if p.size_bytes >= VOICE_SIZE_THRESHOLD or p.dst_ip == receiver:
                continue
            estimate: Optional[float] = None
            if p.dst_ip in self._population:
                relay = self._population.by_ip(p.dst_ip)
                leg1 = self._king.estimate(src, relay)
                leg2 = self._king.estimate(relay, dst)
                if leg1 is not None and leg2 is not None:
                    estimate = leg1 + leg2 + RELAY_DELAY_RTT_MS
            series.append((p.time_ms, p.dst_ip, estimate))
        return series


def _stabilization_time(voice: List[PacketRecord], major_ip: IPv4Address) -> float:
    """First time after which every voice packet goes to the major carrier."""
    if not voice:
        return 0.0
    ordered = sorted(voice, key=lambda p: p.time_ms)
    last_other: Optional[float] = None
    for p in ordered:
        if p.dst_ip != major_ip:
            last_other = p.time_ms
    if last_other is None:
        return 0.0
    for p in ordered:
        if p.time_ms > last_other and p.dst_ip == major_ip:
            return p.time_ms
    return ordered[-1].time_ms


def _carrier_switches(voice: List[PacketRecord]) -> int:
    """Number of times the voice carrier changed (relay bounce count)."""
    ordered = sorted(voice, key=lambda p: p.time_ms)
    switches = 0
    previous: Optional[IPv4Address] = None
    for p in ordered:
        if previous is not None and p.dst_ip != previous:
            switches += 1
        previous = p.dst_ip
    return switches


def _distinct_ordered(ips) -> List[IPv4Address]:
    seen = set()
    out: List[IPv4Address] = []
    for ip in ips:
        if ip not in seen:
            seen.add(ip)
            out.append(ip)
    return out
