"""BGP policy route computation over an annotated AS graph.

This engine produces, for any destination AS, the route every other AS
would actually select under standard Gao-Rexford export/preference rules:

- export: an AS exports customer-learned routes (and its own prefixes)
  to everyone, but exports peer/provider-learned routes only to its
  customers;
- preference: customer routes > peer routes > provider routes, then
  shortest AS path, then a deterministic per-class tie-break (below).

The selected paths are the simulator's ground truth for *direct IP
routing* — they are valley-free but often longer than the shortest
valley-free path, which is precisely why one-hop peer relays can beat
direct routing (paper Section 3.3, Fig. 4).

Implementation: trees are built in *batches* — the disjoint union of B
copies of the graph, one per destination, as three flat arrays of B·V
cells keyed ``slot * V + as_index``.  Edges never cross slots, so one
frontier serves every destination and every tie-break is decided inside
a slot.  Three level-synchronous phases over the
:class:`~repro.bgp.csr.GraphCSR` rows:

1. customer routes — BFS from the destinations up provider and sibling
   edges (siblings transit everything and do not change class).  The
   frontier keeps the order a FIFO queue would have; each level gathers
   the frontier's uphill rows (ascending learner within a row) and the
   *first* gathered offer for an unrouted AS wins, so a tie between
   equally short customer routes goes to the neighbour that joined the
   queue earliest — the lowest ASN at level 1, not necessarily after;
2. peer routes — one peer edge on top of a customer (or origin) route;
   an unrouted AS takes the lexicographic minimum of
   ``(distance, next-hop ASN)`` over its peers' offers;
3. provider routes — an AS inherits its provider's selected route (any
   class) plus one hop.  Unit weights make Dijkstra a BFS by distance
   bucket: the ASes whose final distance is ``d``, in ascending ASN
   order, offer ``d + 1`` to their unrouted customers and the first
   offer wins — shortest, then lowest next-hop ASN.

``tests/oracles.py`` keeps the dict / queue / heap builder these phases
replaced as the executable specification; trees are value-identical.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.errors import TopologyError
from repro.bgp.asgraph import ASGraph
from repro.bgp.csr import GraphCSR, csr_gather
from repro.bgp.routes import PolicyRoute, RouteClass

#: Cells (destinations × ASes) of one batch.  Measured, not tunable
#: (docs/substrate.md): below ~2^14 cells numpy call overhead dominates a
#: small graph's trees, above 2^16 the scatter targets fall out of cache
#: and the sweep's temporaries show in peak RSS.
CELLS = 2**16

#: ``route_class`` of an AS without a route: worse than every class.
UNROUTED = RouteClass.PROVIDER + 1

_UNCLAIMED = np.iinfo(np.int64).max

_CLASS_OF = {int(cls): cls for cls in RouteClass}


@dataclass(eq=False)
class RoutingTree:
    """All selected routes toward one destination AS, as index arrays.

    Position ``i`` of every array is AS ``as_ids[i]`` (ascending ASN;
    ``index_of`` is the inverse, both shared with the router).
    ``distance[i]`` is the AS-hop length of the selected path, -1 when
    ``i`` has no route; ``next_hop[i]`` is the *index* of the AS that
    ``i`` forwards to (-1 for the destination and for unrouted ASes), and
    following it reaches the destination in exactly ``distance[i]``
    steps; ``route_class[i]`` is the :class:`RouteClass` value, or
    :data:`UNROUTED` (worse than any class).
    """

    destination: int
    next_hop: np.ndarray     # (V,) int32
    distance: np.ndarray     # (V,) int32
    route_class: np.ndarray  # (V,) int8
    as_ids: np.ndarray       # (V,) int64, sorted ASNs
    index_of: Dict[int, int]
    # (ASN per index, next-hop index per index) as python lists, made by
    # the first scalar walk: list indexing is ~4x cheaper than numpy
    # scalar reads, and the ASNs are ``index_of``'s own keys, so a walked
    # tree allocates no ints of its own.
    _walk: Optional[Tuple[List[int], List[int]]] = field(default=None, repr=False)

    def path_from(self, source: int) -> Optional[Tuple[int, ...]]:
        """AS path source→destination, or None if unreachable."""
        index = self.index_of.get(source)
        steps = -1 if index is None else self.distance.item(index)
        if steps < 0:
            return None
        if self._walk is None:
            self._walk = (list(self.index_of), self.next_hop.tolist())
        asns, next_index = self._walk
        path = [source]
        for _ in range(steps):
            index = next_index[index]
            path.append(asns[index])
        if path[-1] != self.destination:
            raise TopologyError("routing loop detected — internal invariant broken")
        return tuple(path)

    def route_from(self, source: int) -> Optional[PolicyRoute]:
        """Full :class:`PolicyRoute` for ``source``, or None if unreachable."""
        path = self.path_from(source)
        if path is None:
            return None
        return PolicyRoute(
            source=source,
            destination=self.destination,
            route_class=_CLASS_OF[self.route_class.item(self.index_of[source])],
            as_path=path,
        )


class PolicyRouter:
    """Per-destination policy routing: batched tree construction plus an
    LRU cache of single trees."""

    def __init__(self, graph: ASGraph, cache_size: int = 4096) -> None:
        if cache_size < 1:
            raise ValueError(f"cache_size must be >= 1, got {cache_size}")
        self._graph = graph
        self._csr: Optional[GraphCSR] = None
        self._cache: "OrderedDict[int, RoutingTree]" = OrderedDict()
        self._cache_size = cache_size

    @property
    def graph(self) -> ASGraph:
        return self._graph

    def tree(self, destination: int) -> RoutingTree:
        """The routing tree toward ``destination`` (cached)."""
        cached = self._cache.get(destination)
        if cached is not None:
            self._cache.move_to_end(destination)
            return cached
        built = next(self.trees([destination]))
        self._cache[destination] = built
        if len(self._cache) > self._cache_size:
            self._cache.popitem(last=False)
        return built

    def trees(self, destinations: Iterable[int]) -> Iterator[RoutingTree]:
        """The routing trees toward ``destinations``, in order, built
        ``CELLS // V`` at a time and never cached (a cached row would pin
        its whole batch): hold a tree only as long as it is read."""
        if self._csr is None:
            self._csr = self._graph.csr()
        csr = self._csr
        wanted = list(destinations)
        for destination in wanted:
            if destination not in csr.index_of:
                raise TopologyError(f"unknown destination AS {destination}")
        step = max(1, CELLS // csr.count)
        return (
            tree
            for start in range(0, len(wanted), step)
            for tree in _build_batch(csr, wanted[start : start + step])
        )

    def route(self, source: int, destination: int) -> Optional[PolicyRoute]:
        """The route ``source`` selects toward ``destination`` (or None)."""
        if source not in self._graph or destination not in self._graph:
            raise TopologyError(f"unknown AS in pair ({source}, {destination})")
        return self.tree(destination).route_from(source)

    def as_path(self, source: int, destination: int) -> Optional[Tuple[int, ...]]:
        """Shorthand for the selected AS path (or None if unreachable)."""
        route = self.route(source, destination)
        return None if route is None else route.as_path


# -- batched tree construction -------------------------------------------------


def _offers(
    indptr: np.ndarray, indices: np.ndarray, keys: np.ndarray, count: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Every (via key, learner key) pair along the CSR rows of ``keys``,
    in ``keys`` order × ascending neighbour; learners stay in the
    offering key's slot."""
    nodes = keys % count
    lengths = indptr[nodes + 1] - indptr[nodes]
    learner = np.repeat(keys - nodes, lengths) + csr_gather(indptr, indices, nodes)
    return np.repeat(keys, lengths), learner


def _build_batch(csr: GraphCSR, destinations: Sequence[int]) -> List[RoutingTree]:
    """One sweep: the trees toward ``destinations`` over B·V flat cells."""
    count, slots = csr.count, len(destinations)
    obs.counter("routing.trees").inc(slots)
    obs.counter("routing.tree_batches").inc()
    next_hop = np.full(slots * count, -1, dtype=np.int32)
    distance = np.full(slots * count, -1, dtype=np.int32)
    route_class = np.full(slots * count, UNROUTED, dtype=np.int8)
    scratch = np.full(slots * count, _UNCLAIMED, dtype=np.int64)

    def settle(via: np.ndarray, learner: np.ndarray, rank: np.ndarray, cls: RouteClass):
        """Route every still-unrouted learner through its lowest-ranked
        offer (ranks are distinct per learner); returns the newly routed
        keys in offer order.  ``minimum.at`` rather than a fancy
        assignment: numpy leaves duplicate-index write order undefined."""
        unrouted = distance[learner] < 0
        via, learner, rank = via[unrouted], learner[unrouted], rank[unrouted]
        np.minimum.at(scratch, learner, rank)
        won = scratch[learner] == rank
        scratch[learner] = _UNCLAIMED
        via, learner = via[won], learner[won]
        next_hop[learner] = via % count
        distance[learner] = distance[via] + 1
        route_class[learner] = cls
        return learner

    origins = np.arange(slots, dtype=np.int64) * count + np.array(
        [csr.index_of[d] for d in destinations], dtype=np.int64
    )
    distance[origins] = 0
    route_class[origins] = RouteClass.ORIGIN

    # Phase 1 — customer routes: one BFS level per pass, first offer wins.
    holders = [origins]
    while len(holders[-1]):
        via, learner = _offers(csr.uphill_indptr, csr.uphill_indices, holders[-1], count)
        holders.append(settle(via, learner, np.arange(len(via)), RouteClass.CUSTOMER))

    # Phase 2 — peer routes: min (distance, via index) per learner.
    via, learner = _offers(
        csr.peers_indptr, csr.peers_indices, np.concatenate(holders), count
    )
    rank = (distance[via].astype(np.int64) + 1) * count + via % count
    settle(via, learner, rank, RouteClass.PEER)

    # Phase 3 — provider routes: one distance bucket per pass (distances
    # are contiguous — every routed AS has a next hop one step closer),
    # ascending key within the bucket, first offer wins.
    reach = 0
    while len(nodes := np.flatnonzero(distance == reach)):
        via, learner = _offers(csr.customers_indptr, csr.customers_indices, nodes, count)
        settle(via, learner, np.arange(len(via)), RouteClass.PROVIDER)
        reach += 1

    next_hop = next_hop.reshape(slots, count)
    distance = distance.reshape(slots, count)
    route_class = route_class.reshape(slots, count)
    return [
        RoutingTree(
            destination=destination,
            next_hop=next_hop[slot],
            distance=distance[slot],
            route_class=route_class[slot],
            as_ids=csr.as_ids,
            index_of=csr.index_of,
        )
        for slot, destination in enumerate(destinations)
    ]
