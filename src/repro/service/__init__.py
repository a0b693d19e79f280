"""``repro.service`` — ASAP daemons over a real (or loopback) wire.

The simulated runtime (:mod:`repro.core.runtime`) runs the protocol's
call flow (:mod:`repro.core.dial`) over a simulated network; this
package runs the same flow, and the daemons that answer it, over
:mod:`repro.net` frames:

- :class:`BootstrapServer` — registration + the overlay's directory
  (ip → wire address, cluster → serving surrogate daemon);
- :class:`SurrogateServer` — serves its cluster's close cluster set and
  accepts nodal-information publishes (§6.1/§6.2);
- :class:`HostAgent` — an end host: joins, answers pings, relays media
  for others, and places calls with the paper's setup pipeline
  (ping → close-set exchange → select-close-relay → relayed media with
  keepalive failover);
- :func:`run_demo` — a whole overlay in one process (bootstrap, N
  surrogates, M host agents) on either substrate.

All daemons share :class:`ServiceWorld`, the deterministically built
scenario both sides of a TCP deployment reconstruct from
``(scale, seed)``.  Timeouts, retries and backoff are the same
:mod:`repro.core.dial` constants the simulator uses, and the
agents emit the same trace-span vocabulary (``join``, ``call``,
``setup.ping``, ``setup.close_set``, ``setup.two_hop``,
``setup.relay_pick``, ``setup.done``, ``media``), so a call over real
localhost sockets lands in ``traces.jsonl`` in the same shape as a
simulated one.
"""

from repro.service.bootstrap import BootstrapServer
from repro.service.demo import DemoResult, run_demo
from repro.core.dial import DialResult
from repro.service.host import HostAgent
from repro.service.node import ServiceNode
from repro.service.surrogate import SurrogateServer
from repro.service.world import ServiceWorld

__all__ = [
    "BootstrapServer",
    "DemoResult",
    "DialResult",
    "HostAgent",
    "ServiceNode",
    "SurrogateServer",
    "ServiceWorld",
    "run_demo",
]
