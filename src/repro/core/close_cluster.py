"""``construct-close-cluster-set()`` — paper Fig. 9.

Runs on a cluster surrogate ``s``: breadth-first search from s's AS over
the annotated AS graph under the valley-free constraint, up to ``k``
hops.  Every cluster discovered in a visited AS is probed (surrogate to
surrogate RTT and loss); clusters passing the thresholds join the close
cluster set.  Expansion continues through an AS only while the
measurements there still pass — latT/lossT "stop path expansion".

ASes that host no online cluster (transit networks) cannot be probed and
do not bound the search; only the hop limit stops expansion through them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Callable, Dict, List, Mapping, Optional, Set, Tuple

import numpy as np

from repro.bgp.asgraph import ASGraph, _PHASE_DOWN, _PHASE_UP
from repro.core.config import ASAPConfig
from repro.errors import ProtocolError

# lat(c_own, c_other) and loss(c_own, c_other) between cluster surrogates,
# by cluster matrix index; None when the probe gets no answer.
LatencyProbe = Callable[[int, int], Optional[float]]
LossProbe = Callable[[int, int], Optional[float]]


@dataclass(frozen=True)
class CloseClusterEntry:
    """One member of a close cluster set, with its measured path metrics."""

    cluster: int        # matrix index of the member cluster
    rtt_ms: float       # measured surrogate-to-surrogate RTT
    loss: float         # measured one-way loss rate
    as_hops: int        # valley-free BFS depth at which it was found


@dataclass(eq=False)
class CloseClusterSet:
    """The close cluster set of one cluster (keyed by matrix index).

    The set *is* four aligned arrays sorted by member cluster id; the
    constructor rejects anything else.  :meth:`add` / :meth:`discard`
    rebind the arrays and never write into them, so arrays handed out by
    :meth:`rows`, and shallow copies of the set, stay valid snapshots.
    """

    owner: int
    ids: np.ndarray = ()          # member clusters: int64, strictly ascending
    rtt_ms: np.ndarray = ()       # measured surrogate-to-surrogate RTT (float64)
    loss: np.ndarray = ()         # measured one-way loss rate (float64)
    as_hops: np.ndarray = ()      # valley-free BFS depth of discovery (int64)
    probe_messages: int = 0       # maintenance traffic spent building it
    ases_visited: int = 0
    #: Probe messages split by the AS whose clusters were probed — the
    #: trace layer's L2/L4 attribution (which AS absorbed the probing).
    probes_by_as: Dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.ids = np.asarray(self.ids, dtype=np.int64)
        self.rtt_ms = np.asarray(self.rtt_ms, dtype=np.float64)
        self.loss = np.asarray(self.loss, dtype=np.float64)
        self.as_hops = np.asarray(self.as_hops, dtype=np.int64)
        shapes = {self.ids.shape, self.rtt_ms.shape, self.loss.shape, self.as_hops.shape}
        if len(shapes) != 1 or self.ids.ndim != 1 or np.any(self.ids[1:] <= self.ids[:-1]):
            raise ProtocolError(f"close set of {self.owner}: arrays unaligned or ids not ascending")

    def __eq__(self, other) -> bool:
        if not isinstance(other, CloseClusterSet):
            return NotImplemented
        return self.entries == other.entries and (
            (self.owner, self.probe_messages, self.ases_visited, self.probes_by_as)
            == (other.owner, other.probe_messages, other.ases_visited, other.probes_by_as)
        )

    def _slot(self, cluster: int) -> Tuple[int, bool]:
        """Where ``cluster`` sits or would be inserted; whether it is a member."""
        at = int(np.searchsorted(self.ids, cluster))
        return at, at < len(self.ids) and int(self.ids[at]) == cluster

    def __contains__(self, cluster: int) -> bool:
        return self._slot(cluster)[1]

    def __len__(self) -> int:
        return len(self.ids)

    def rtt_to(self, cluster: int) -> float:
        at, member = self._slot(cluster)
        if not member:
            raise ProtocolError(f"cluster {cluster} not in close set of {self.owner}")
        return float(self.rtt_ms[at])

    def rows(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(ids, rtt_ms)`` as stored: the form select-close-relay
        intersects.  Read-only by convention."""
        return self.ids, self.rtt_ms

    def clusters(self) -> List[int]:
        return self.ids.tolist()

    @property
    def entries(self) -> Mapping[int, CloseClusterEntry]:
        """The members as a read-only ``{cluster: entry}`` mapping in
        ascending order, derived from the arrays on every access — for
        tests and scalar specifications, not for hot paths."""
        rows = zip(
            self.clusters(), self.rtt_ms.tolist(), self.loss.tolist(), self.as_hops.tolist()
        )
        return MappingProxyType({row[0]: CloseClusterEntry(*row) for row in rows})

    def add(self, entry: CloseClusterEntry) -> None:
        """Admit ``entry``; a cluster that is already a member keeps its entry."""
        at, member = self._slot(entry.cluster)
        if not member:
            self.ids = np.insert(self.ids, at, entry.cluster)
            self.rtt_ms = np.insert(self.rtt_ms, at, entry.rtt_ms)
            self.loss = np.insert(self.loss, at, entry.loss)
            self.as_hops = np.insert(self.as_hops, at, entry.as_hops)

    def discard(self, cluster: int) -> None:
        """Evict ``cluster`` if it is a member."""
        at, member = self._slot(cluster)
        if member:
            self.ids = np.delete(self.ids, at)
            self.rtt_ms = np.delete(self.rtt_ms, at)
            self.loss = np.delete(self.loss, at)
            self.as_hops = np.delete(self.as_hops, at)

    def drift_from(self, fresh: "CloseClusterSet") -> float:
        """``|self Δ fresh| / max(1, |fresh|)`` over members with their
        measurements — how far this (stale) set sits from ``fresh``.  A
        member whose measurements changed counts on both sides."""
        _, mine, theirs = np.intersect1d(
            self.ids, fresh.ids, assume_unique=True, return_indices=True
        )
        same = (
            (self.rtt_ms[mine] == fresh.rtt_ms[theirs])
            & (self.loss[mine] == fresh.loss[theirs])
            & (self.as_hops[mine] == fresh.as_hops[theirs])
        )
        return (len(self) + len(fresh) - 2 * int(same.sum())) / max(1, len(fresh))


def construct_close_cluster_set(
    own_cluster: int,
    own_as: int,
    graph: ASGraph,
    clusters_in_as: Callable[[int], List[int]],
    lat: LatencyProbe,
    loss: LossProbe,
    config: Optional[ASAPConfig] = None,
    meta_out: Optional[Dict[int, Tuple[int, bool]]] = None,
) -> CloseClusterSet:
    """Build the close cluster set for ``own_cluster`` whose AS is ``own_as``.

    ``clusters_in_as`` maps an AS number to the matrix indices of online
    clusters it hosts.  ``lat``/``loss`` probe the direct path between
    this surrogate and another cluster's surrogate (2 messages per
    probed cluster are accounted).

    The BFS is *level-synchronous*: each hop level discovers its new
    (AS, phase) states as a set, probes newly seen ASes in ascending
    ASN order, and only then expands.  Expansion rights are a property
    of the AS — an AS whose probes all failed blocks every phase state
    through it.  This makes the result independent of neighbor
    iteration order, which is what lets the vectorized flat-array
    builder (:mod:`repro.worldarrays.closesets`) reproduce it
    bit-for-bit.

    ``meta_out``, when given, receives ``{asn: (depth, expands)}`` for
    every visited AS — the BFS state the incremental maintainer
    (:mod:`repro.control.maintainer`) needs to patch the set in place
    when cluster membership changes.
    """
    if config is None:
        config = ASAPConfig()
    result = CloseClusterSet(owner=own_cluster)  # carries the accounting
    if own_as not in graph:
        # The surrogate's AS is unknown to the (inferred) graph — can
        # happen when inference dropped it; the close set is then empty.
        return result

    # Own cluster and co-located clusters are trivially close (intra-AS).
    found: Dict[int, CloseClusterEntry] = {}
    for cluster in clusters_in_as(own_as):
        if cluster == own_cluster:
            found[cluster] = CloseClusterEntry(cluster, 0.0, 0.0, 0)
            continue
        measured = _probe(result, own_cluster, cluster, own_as, lat, loss)
        if measured is not None:
            rtt, lost = measured
            if rtt < config.lat_threshold_ms and lost < config.loss_threshold:
                found[cluster] = CloseClusterEntry(cluster, rtt, lost, 0)
    result.ases_visited = 1

    # Valley-free BFS outward, level by level, with threshold-based
    # pruning per visited AS (latT/lossT "stop path expansion").
    expands: Dict[int, bool] = {own_as: True}
    if meta_out is not None:
        meta_out[own_as] = (0, True)
    visited: Set[Tuple[int, int]] = {(own_as, _PHASE_UP)}
    frontier: List[Tuple[int, int]] = [(own_as, _PHASE_UP)]
    for depth in range(1, config.k_hops + 1):
        discovered: Set[Tuple[int, int]] = set()
        for node, phase in frontier:
            if not expands[node]:
                continue
            for state in _steps(graph, node, phase, config.valley_free):
                if state not in visited:
                    visited.add(state)
                    discovered.add(state)
        if not discovered:
            break
        for asn in sorted({a for a, _ in discovered} - expands.keys()):
            result.ases_visited += 1
            expands[asn] = _visit_as(
                result, found, asn, depth, own_cluster, clusters_in_as, lat, loss, config
            )
            if meta_out is not None:
                meta_out[asn] = (depth, expands[asn])
        frontier = sorted(discovered)

    members = [found[cluster] for cluster in sorted(found)]
    result = replace(
        result,
        ids=[m.cluster for m in members],
        rtt_ms=[m.rtt_ms for m in members],
        loss=[m.loss for m in members],
        as_hops=[m.as_hops for m in members],
    )
    emit_build_observability(result, own_as)
    return result


def emit_build_observability(result: CloseClusterSet, own_as: int) -> None:
    """Counters, histograms, and the trace span of one close-set build.

    Shared by the reference path above and the flat-array builder so the
    two emit byte-identical observability for identical results.
    """
    from repro import obs

    if not result.ases_visited:
        return  # the owner's AS is unknown to the graph: nothing was built
    obs.counter("close_set.built").inc()
    obs.counter("close_set.probe_messages").inc(result.probe_messages)
    obs.histogram("close_set.size").observe(len(result))
    obs.histogram("close_set.ases_visited").observe(result.ases_visited)
    tracer = obs.tracer()
    if tracer:
        # Builds run analytically (zero simulated time), so the span is
        # instantaneous; it nests under whatever selection scope is
        # ambient, or starts its own trace when built standalone.
        now = tracer.now()
        parent = tracer.active
        build = (
            parent.child("close_set.build", now, owner=result.owner, asn=own_as)
            if parent
            else tracer.begin("close_set.build", now, owner=result.owner, asn=own_as)
        )
        build.end(
            now,
            size=len(result),
            probe_messages=result.probe_messages,
            ases_visited=result.ases_visited,
            probes_by_as={str(k): v for k, v in sorted(result.probes_by_as.items())},
        )


def _visit_as(
    result: CloseClusterSet,
    found: Dict[int, CloseClusterEntry],
    asn: int,
    depth: int,
    own_cluster: int,
    clusters_in_as: Callable[[int], List[int]],
    lat: LatencyProbe,
    loss: LossProbe,
    config: ASAPConfig,
) -> bool:
    """Probe every cluster in a newly visited AS.

    Returns whether the BFS may expand *through* this AS: transit ASes
    (no clusters) always allow expansion; populated ASes allow it only
    if at least one of their clusters passed the thresholds.
    """
    clusters = clusters_in_as(asn)
    if not clusters:
        return True
    any_passed = False
    for cluster in clusters:
        measured = _probe(result, own_cluster, cluster, asn, lat, loss)
        if measured is None:
            continue
        rtt, lost = measured
        if rtt < config.lat_threshold_ms and lost < config.loss_threshold:
            found.setdefault(cluster, CloseClusterEntry(cluster, rtt, lost, depth))
            any_passed = True
    return any_passed


def _probe(
    result: CloseClusterSet,
    own_cluster: int,
    other: int,
    asn: int,
    lat: LatencyProbe,
    loss: LossProbe,
) -> Optional[Tuple[float, float]]:
    """One surrogate-to-surrogate measurement (request + response)."""
    result.probe_messages += 2
    result.probes_by_as[asn] = result.probes_by_as.get(asn, 0) + 2
    rtt = lat(own_cluster, other)
    lost = loss(own_cluster, other)
    if rtt is None or lost is None:
        return None
    return rtt, lost


def _steps(graph: ASGraph, node: int, phase: int, valley_free: bool):
    """Neighbor moves; falls back to unconstrained BFS when disabled."""
    if valley_free:
        yield from graph._valley_free_steps(node, phase)
        return
    for neighbor in graph.neighbors(node):
        yield neighbor, phase
