"""Discrete-event simulation substrate.

A minimal but real DES kernel: a clock + priority event queue that also
schedules coroutines (:mod:`repro.sim.engine`), a network layer that
completes host-to-host requests one round trip later, or drops them
(:mod:`repro.sim.network`), and packet trace records
(:mod:`repro.sim.trace`) in the shape a pcap-based analyzer consumes —
the Skype study (paper Section 5) runs entirely on these pieces.
"""

from repro.sim.engine import Event, Simulator, Wait
from repro.sim.network import SimNetwork
from repro.sim.trace import PacketRecord, SessionTrace

__all__ = [
    "Event",
    "PacketRecord",
    "SessionTrace",
    "SimNetwork",
    "Simulator",
    "Wait",
]
