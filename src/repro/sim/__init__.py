"""Discrete-event simulation substrate.

A minimal but real DES kernel: a clock + priority event queue that also
schedules coroutines (:mod:`repro.sim.engine`), a message-passing network layer that delivers
host-to-host messages after the latency model's one-way delay
(:mod:`repro.sim.network`), and packet trace records
(:mod:`repro.sim.trace`) in the shape a pcap-based analyzer consumes —
the Skype study (paper Section 5) runs entirely on these pieces.
"""

from repro.sim.engine import Event, Simulator, Wait
from repro.sim.network import Message, SimNetwork
from repro.sim.trace import PacketRecord, SessionTrace

__all__ = [
    "Event",
    "Message",
    "PacketRecord",
    "SessionTrace",
    "SimNetwork",
    "Simulator",
    "Wait",
]
