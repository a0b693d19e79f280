"""Packet trace records — the simulated equivalent of WinDump captures.

The paper's Skype study collects packets at both end hosts and analyzes
only what a capture can see: timestamps, endpoint addresses/ports, sizes
and direction.  The Skype simulator emits these records, and the trace
analyzer (:mod:`repro.skype.analyzer`) consumes nothing else — keeping
the same information boundary as the original methodology.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.netaddr import IPv4Address


@dataclass(frozen=True)
class PacketRecord:
    """One captured packet as seen at a capture point."""

    time_ms: float
    src_ip: IPv4Address
    src_port: int
    dst_ip: IPv4Address
    dst_port: int
    size_bytes: int
    kind: str  # "voice" | "probe" | "signal"

    def endpoints(self) -> Tuple[IPv4Address, IPv4Address]:
        return (self.src_ip, self.dst_ip)


@dataclass
class SessionTrace:
    """All packets captured at the two end hosts of one calling session."""

    session_id: int
    caller: IPv4Address
    callee: IPv4Address
    caller_packets: List[PacketRecord] = field(default_factory=list)
    callee_packets: List[PacketRecord] = field(default_factory=list)

    def record_at_caller(self, packet: PacketRecord) -> None:
        self.caller_packets.append(packet)

    def record_at_callee(self, packet: PacketRecord) -> None:
        self.callee_packets.append(packet)

    def duration_ms(self) -> float:
        packets = self.caller_packets + self.callee_packets
        if not packets:
            return 0.0
        times = [p.time_ms for p in packets]
        return max(times) - min(times)

    def packets_sent_by(self, ip: IPv4Address) -> List[PacketRecord]:
        """Packets originated by one endpoint (seen at its capture point)."""
        source = self.caller_packets if ip == self.caller else self.callee_packets
        return [p for p in source if p.src_ip == ip]
