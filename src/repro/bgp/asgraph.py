"""Annotated AS graph with valley-free path search.

Nodes are AS numbers; edges carry one of three commercial relationships
(provider-customer, peer-peer, sibling-sibling).  Two queries matter to
the paper:

- *valley-free reachability within k AS hops* — the BFS inside ASAP's
  ``construct-close-cluster-set()`` (Fig. 9), and
- *shortest valley-free AS-hop distance* — the paper's property (3): AS
  hop count correlates with latency.

A valley-free path is an uphill segment of customer→provider edges,
at most one peer-peer edge, then a downhill segment of provider→customer
edges [Gao 2001].  Sibling edges transit in both directions and do not
change phase.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Set, Tuple

from repro.errors import TopologyError

if TYPE_CHECKING:
    from repro.bgp.csr import GraphCSR


class Relationship(Enum):
    """Commercial relationship of an annotated AS edge."""

    PROVIDER_CUSTOMER = "p2c"
    PEER_PEER = "p2p"
    SIBLING_SIBLING = "s2s"


# BFS phase while walking a valley-free path.
_PHASE_UP = 0    # still allowed to climb customer→provider edges
_PHASE_DOWN = 1  # crossed the ridge (peer edge or first downhill edge)


@dataclass
class ASGraph:
    """Undirected AS-level topology with per-edge relationship annotations.

    The graph keeps its one CSR export (:meth:`csr`) beside its fields:
    every array consumer of one graph shares it, any ``add_*`` drops it,
    and it is never compared, printed or pickled.
    """

    _providers: Dict[int, Set[int]] = field(default_factory=dict)
    _customers: Dict[int, Set[int]] = field(default_factory=dict)
    _peers: Dict[int, Set[int]] = field(default_factory=dict)
    _siblings: Dict[int, Set[int]] = field(default_factory=dict)

    # -- construction -----------------------------------------------------

    def add_as(self, asn: int) -> None:
        """Register an AS with no edges (idempotent)."""
        if asn <= 0:
            raise TopologyError(f"ASN must be positive, got {asn}")
        # Every add_* registers its endpoints here first, so this is the
        # one place a mutation drops the export.
        self.__dict__.pop("_export", None)
        for table in (self._providers, self._customers, self._peers, self._siblings):
            table.setdefault(asn, set())

    def add_provider_customer(self, provider: int, customer: int) -> None:
        """Annotate: ``provider`` sells transit to ``customer``."""
        if provider == customer:
            raise TopologyError(f"self edge on AS {provider}")
        self.add_as(provider)
        self.add_as(customer)
        self._check_new_edge(provider, customer)
        self._customers[provider].add(customer)
        self._providers[customer].add(provider)

    def add_peer(self, a: int, b: int) -> None:
        """Annotate a settlement-free peer-peer edge."""
        if a == b:
            raise TopologyError(f"self edge on AS {a}")
        self.add_as(a)
        self.add_as(b)
        self._check_new_edge(a, b)
        self._peers[a].add(b)
        self._peers[b].add(a)

    def add_sibling(self, a: int, b: int) -> None:
        """Annotate a sibling edge (same organization, mutual transit)."""
        if a == b:
            raise TopologyError(f"self edge on AS {a}")
        self.add_as(a)
        self.add_as(b)
        self._check_new_edge(a, b)
        self._siblings[a].add(b)
        self._siblings[b].add(a)

    def _check_new_edge(self, a: int, b: int) -> None:
        if self.relationship(a, b) is not None:
            raise TopologyError(f"edge {a}-{b} already annotated")

    def csr(self) -> "GraphCSR":
        """The graph's :class:`~repro.bgp.csr.GraphCSR` export, built on
        first use and shared until the next ``add_*``.  Treat it as
        read-only: every router and close-set builder on this graph
        reads the same arrays."""
        export = self.__dict__.get("_export")
        if export is None:
            from repro.bgp.csr import GraphCSR

            export = self.__dict__["_export"] = GraphCSR.from_asgraph(self)
        return export

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_export", None)
        return state

    # -- basic queries -----------------------------------------------------

    def ases(self) -> List[int]:
        """All registered AS numbers, sorted."""
        return sorted(self._providers)

    def __contains__(self, asn: int) -> bool:
        return asn in self._providers

    def __len__(self) -> int:
        return len(self._providers)

    def edge_count(self) -> int:
        """Number of undirected annotated edges."""
        p2c = sum(len(c) for c in self._customers.values())
        p2p = sum(len(p) for p in self._peers.values()) // 2
        s2s = sum(len(s) for s in self._siblings.values()) // 2
        return p2c + p2p + s2s

    def providers(self, asn: int) -> Set[int]:
        return set(self._providers.get(asn, ()))

    def customers(self, asn: int) -> Set[int]:
        return set(self._customers.get(asn, ()))

    def peers(self, asn: int) -> Set[int]:
        return set(self._peers.get(asn, ()))

    def siblings(self, asn: int) -> Set[int]:
        return set(self._siblings.get(asn, ()))

    def neighbors(self, asn: int) -> Set[int]:
        """All adjacent ASes regardless of relationship."""
        return (
            self.providers(asn)
            | self.customers(asn)
            | self.peers(asn)
            | self.siblings(asn)
        )

    def degree(self, asn: int) -> int:
        """Total annotated degree of an AS (an AS pair carries exactly one
        relationship, so the four neighbour sets are disjoint)."""
        return (
            len(self._providers.get(asn, ()))
            + len(self._customers.get(asn, ()))
            + len(self._peers.get(asn, ()))
            + len(self._siblings.get(asn, ()))
        )

    def relationship(self, a: int, b: int) -> Optional[Relationship]:
        """The relationship annotation of edge a-b, from ``a``'s view.

        Returns PROVIDER_CUSTOMER whether ``a`` is the provider or the
        customer; use :meth:`is_provider_of` to get direction.
        """
        if b in self._customers.get(a, ()) or b in self._providers.get(a, ()):
            return Relationship.PROVIDER_CUSTOMER
        if b in self._peers.get(a, ()):
            return Relationship.PEER_PEER
        if b in self._siblings.get(a, ()):
            return Relationship.SIBLING_SIBLING
        return None

    def is_provider_of(self, a: int, b: int) -> bool:
        return b in self._customers.get(a, ())

    def without(self, excluded: Iterable[int]) -> "ASGraph":
        """A copy of the graph with the given ASes (and their edges) removed.

        Used for failure injection: routing over ``without(failed)`` is
        routing after those ASes went dark.
        """
        dead = set(excluded)
        clone = ASGraph()
        for asn in self.ases():
            if asn not in dead:
                clone.add_as(asn)
        for provider, customers in self._customers.items():
            if provider in dead:
                continue
            for customer in customers:
                if customer not in dead:
                    clone.add_provider_customer(provider, customer)
        seen: Set[Tuple[int, int]] = set()
        for a, peers in self._peers.items():
            if a in dead:
                continue
            for b in peers:
                if b in dead or (b, a) in seen:
                    continue
                seen.add((a, b))
                clone.add_peer(a, b)
        seen.clear()
        for a, sibs in self._siblings.items():
            if a in dead:
                continue
            for b in sibs:
                if b in dead or (b, a) in seen:
                    continue
                seen.add((a, b))
                clone.add_sibling(a, b)
        return clone

    # -- valley-free search -------------------------------------------------

    def valley_free_distance(self, src: int, dst: int, max_hops: int = 32) -> Optional[int]:
        """Shortest valley-free hop distance src→dst, or None if unreachable."""
        if src not in self or dst not in self:
            raise TopologyError(f"unknown AS in pair ({src}, {dst})")
        if src == dst:
            return 0
        visited: Set[Tuple[int, int]] = {(src, _PHASE_UP)}
        queue = deque([(src, _PHASE_UP, 0)])
        while queue:
            node, phase, dist = queue.popleft()
            if dist == max_hops:
                continue
            for nxt, nxt_phase in self._valley_free_steps(node, phase):
                if nxt == dst:
                    return dist + 1
                state = (nxt, nxt_phase)
                if state in visited:
                    continue
                visited.add(state)
                queue.append((nxt, nxt_phase, dist + 1))
        return None

    def is_valley_free(self, path: Iterable[int]) -> bool:
        """Check that an explicit AS path obeys the valley-free property."""
        nodes = list(path)
        if len(nodes) <= 1:
            return True
        phase = _PHASE_UP
        for a, b in zip(nodes, nodes[1:]):
            rel = self.relationship(a, b)
            if rel is None:
                return False
            if rel is Relationship.SIBLING_SIBLING:
                continue
            if rel is Relationship.PEER_PEER:
                if phase == _PHASE_DOWN:
                    return False
                phase = _PHASE_DOWN
            elif self.is_provider_of(b, a):  # a -> b climbs to a provider
                if phase == _PHASE_DOWN:
                    return False
            else:  # a -> b descends to a customer
                phase = _PHASE_DOWN
        return True

    def _valley_free_steps(self, node: int, phase: int):
        """Yield (next_as, next_phase) moves allowed from (node, phase)."""
        if phase == _PHASE_UP:
            for p in self._providers.get(node, ()):
                yield p, _PHASE_UP
            for p in self._peers.get(node, ()):
                yield p, _PHASE_DOWN
        for c in self._customers.get(node, ()):
            yield c, _PHASE_DOWN
        for s in self._siblings.get(node, ()):
            yield s, phase
