"""BGP substrate: RIB parsing, AS relationships, annotated AS graph, routing.

The paper builds everything on public BGP data: an IP-prefix→origin-AS
mapping table (Section 3.1) and an annotated AS graph inferred with Gao's
algorithm (Sections 6-7).  This package implements that pipeline from
scratch:

- :mod:`repro.bgp.rib` — RIB entries and a text dump format + parser.
- :mod:`repro.bgp.updates` — announce/withdraw updates applied to a RIB.
- :mod:`repro.bgp.prefix_table` — prefix→origin-AS longest-match table.
- :mod:`repro.bgp.relationships` — Gao provider/customer/peer inference.
- :mod:`repro.bgp.asgraph` — the annotated AS graph with valley-free search.
- :mod:`repro.bgp.csr` — that graph exported to CSR arrays.
- :mod:`repro.bgp.routing` — BGP policy route computation (customer >
  peer > provider preference, shortest AS path), routing trees built in
  batched array sweeps, used as the "direct IP routing" ground truth of
  the simulator.
"""

from repro.bgp.asgraph import ASGraph, Relationship
from repro.bgp.prefix_table import PrefixOriginTable
from repro.bgp.relationships import infer_relationships
from repro.bgp.rib import RIBEntry, RoutingTable, parse_rib_dump, format_rib_dump
from repro.bgp.routes import PolicyRoute, RouteClass
from repro.bgp.routing import PolicyRouter
from repro.bgp.updates import BGPUpdate, apply_updates, parse_update_stream

__all__ = [
    "ASGraph",
    "BGPUpdate",
    "PolicyRoute",
    "PolicyRouter",
    "PrefixOriginTable",
    "RIBEntry",
    "Relationship",
    "RouteClass",
    "RoutingTable",
    "apply_updates",
    "format_rib_dump",
    "infer_relationships",
    "parse_rib_dump",
    "parse_update_stream",
]
