"""Parity oracles for the flat-array substrate (``repro.worldarrays``).

- The scalar delegate-matrix fill: the original object-path code — a
  memoized python walk per routing tree and a python loop over source
  rows per column — moved out of ``repro.measurement.matrix`` when the
  flat arrays became the only production path.  Deliberately slow and
  obvious; :func:`repro.measurement.matrix.compute_delegate_matrices`
  (serial and pooled) must reproduce it bit for bit.
- :func:`dict_routing_tree`: the dict / ``deque`` / ``heapq`` routing-tree
  builder ``repro.bgp.routing.PolicyRouter`` had before trees became
  batched arrays, verbatim.  The scalar matrix fill above walks *these*
  trees, so it shares no code with the production path.
- :func:`construct_close_cluster_set`: the readable Fig. 9 transcription
  (a scalar, level-synchronous valley-free BFS), moved out of
  ``repro.core.close_cluster`` because no production module runs it;
  :func:`reference_close_set` wires it to a system's world, which
  :class:`repro.worldarrays.FlatCloseSetBuilder` must match.
- :func:`scalar_select_close_relay`: the Fig. 10 transcription over the
  close sets' ``entries`` views, one candidate at a time — the body
  :func:`repro.core.relay_selection.select_close_relay` had before it
  went array-native, which the batch kernel
  (:class:`repro.core.relay_selection.SelectionBatch`) must reproduce
  session by session, float for float.
- :func:`valley_free_ball`: the close-set property's reference — the
  minimum valley-free hop count to every AS within a radius, moved out of
  ``ASGraph`` because only tests compare against it.
- :func:`rtt_to`: one close-set member's RTT, read through the set's
  sorted-id lookup (the scalar selection above reads its legs with it).
- :func:`assert_arrays_are_the_set`: the invariants of the arrays a
  :class:`CloseClusterSet` stores, and of the views it derives.
- :func:`dense_k_hops`: ``np.percentile`` over the materialized hop
  multiset — the dense expression :func:`repro.core.config.derive_k_hops`
  had before the histogram fold became its only body.
- :func:`ring_preference`: the clockwise ring walk
  :meth:`repro.control.HashRing.preference` ran on every call before
  each key's chain was memoized, verbatim.
- :func:`min_plus_fold` / :func:`reference_opt_scores`: OPT's two-hop
  min-plus product over every cell, as ``OPTMethod`` folded it before
  the one-hop bound pruned its rows and columns; ``evaluate_sessions``
  must match ``min(best one-hop, two-hop)`` and the quality counts bit
  for bit, :func:`best_two_hop` the two-hop minimum.  :func:`best_one_hop`
  / :func:`best_two_hop` / :func:`evaluate_session` are one-session
  probes into the production kernels, for the tests that pick one pair.
- :func:`reference_generate_workload`: the session draw loop — one
  ``rng.choice`` and one cell read per session, a cluster lookup per
  endpoint — verbatim; ``generate_workload`` (block draws) must return
  the same sessions at the default threshold.
- Section-7 set-up, as it was before a round paid only for what it
  touched: :func:`elect_every_group` (every cluster's surrogate group
  elected in ``ASAPSystem.__init__``, in prefix order),
  :func:`reference_top_degree_clusters` (the DEDI / MIX fleet ranked by
  ``sorted`` with a python key) and :func:`reference_host_table` (one
  ``cluster_of`` + prefix lookup per host, per call).
- :func:`prefix_contains` / :func:`prefix_contains_prefix`: CIDR
  containment, which the placement tests check addresses and prefixes
  against.
- :func:`reference_summarize_method`: a Section-7 method summary with
  one numpy reduction per statistic, as it was before the reductions
  were folded into one pass.
- :func:`reference_media_session`: the per-frame media pipeline
  :func:`repro.media.run_media_session` ran before it became one pass
  over locals — a :class:`FrameSource` of :class:`SentFrame` rows, a
  per-frame segment and outage scan, a summing codec adapter, the
  method-per-frame jitter buffer and the dict-bucketing window scorer
  (:func:`reference_score_trace`).  Production must match it field for
  field, traces, playout rows, scores and switches.  One change was made
  to it on purpose: a channel-kept frame draws its jitter before an
  outage overrides it (it used to skip the draw, which shifted every
  later frame's draws).
- :class:`ReferenceSimulator`: the virtual clock's scheduling as it was
  before ``run`` became one unrolled loop and ``start`` existed — one
  ``step()`` per event, reading the popped ``Event``'s fields, and every
  coroutine made runnable through the ready queue (``start`` is
  ``spawn``).  :class:`repro.sim.engine.Simulator` must run every
  program in the same order.
"""

from __future__ import annotations

import bisect
import functools
import heapq
from collections import Counter, deque
from dataclasses import dataclass, replace
from typing import Callable, Deque, Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np
import pytest

from repro.bgp.asgraph import _PHASE_UP, ASGraph
from repro.bgp.routes import RouteClass
from repro.control.sharding import HashRing, _stable_hash
from repro.worldarrays.closesets import (
    LOSS_THRESHOLD,
    CloseClusterEntry,
    CloseClusterSet,
    emit_build_observability,
)
from repro.core.config import ASAPConfig
from repro.core.relay_selection import ONE_HOP, TWO_HOP, RelaySelection
from repro.errors import ProtocolError, TopologyError
from repro.evaluation.metrics import MethodRecord, MethodSummary
from repro.measurement.latency import RELAY_DELAY_RTT_MS, LatencyModel
from repro.measurement.matrix import UNREACHABLE, DelegateMatrices, cluster_headers
from repro.media.adapt import AdaptationPolicy, CodecSwitch
from repro.media.frames import ReceivedFrame, ReceivedTrace, _codec_by_name
from repro.media.jitterbuf import ALPHA, FACTOR, JitterBufferConfig
from repro.media.plc import conceal
from repro.media.score import MeasuredScore, WindowScore
from repro.media.session import MediaPlaneConfig, PathWindow
from repro.netaddr import IPv4Address, IPv4Prefix
from repro.sim.engine import Simulator
from repro.topology.clustering import ClusterIndex
from repro.util.rng import derive_rng
from repro.voip.codecs import G729A_VAD, Codec
from repro.voip.emodel import EModel, EModelConfig
from repro.voip.outage import OutageWindow, account_outages
from repro.voip.quality import RTT_THRESHOLD_MS


@dataclass
class DictRoutingTree:
    """All selected routes toward one destination AS, keyed by ASN."""

    destination: int
    route_class: Dict[int, RouteClass]
    distance: Dict[int, int]
    next_hop: Dict[int, int]

    def reaches(self, source: int) -> bool:
        return source in self.route_class


def dict_routing_tree(graph: ASGraph, destination: int) -> DictRoutingTree:
    """One destination's Gao-Rexford tree, one AS at a time."""
    if destination not in graph:
        raise TopologyError(f"unknown destination AS {destination}")

    route_class: Dict[int, RouteClass] = {destination: RouteClass.ORIGIN}
    distance: Dict[int, int] = {destination: 0}
    next_hop: Dict[int, int] = {}

    # Phase 1 — customer routes: propagate from the destination up
    # customer→provider edges (and across sibling edges).
    queue = deque([destination])
    while queue:
        node = queue.popleft()
        dist = distance[node]
        uphill = graph.providers(node) | graph.siblings(node)
        for learner in sorted(uphill):
            if learner in route_class:
                continue
            route_class[learner] = RouteClass.CUSTOMER
            distance[learner] = dist + 1
            next_hop[learner] = node
            queue.append(learner)

    # Phase 2 — peer routes: exactly one peer edge on top of a
    # customer route (or directly to the destination).
    customer_holders = [n for n, c in route_class.items() if c in (RouteClass.CUSTOMER, RouteClass.ORIGIN)]
    peer_candidates: Dict[int, Tuple[int, int]] = {}
    for holder in customer_holders:
        for learner in graph.peers(holder):
            if learner in route_class:
                continue
            cand = (distance[holder] + 1, holder)
            if learner not in peer_candidates or cand < peer_candidates[learner]:
                peer_candidates[learner] = cand
    for learner, (dist, via) in peer_candidates.items():
        route_class[learner] = RouteClass.PEER
        distance[learner] = dist
        next_hop[learner] = via

    # Phase 3 — provider routes: downhill inheritance of any selected
    # route, Dijkstra order so shorter provider routes win.
    heap = [(distance[n], n) for n in route_class]
    heapq.heapify(heap)
    settled: Set[int] = set()
    while heap:
        dist, node = heapq.heappop(heap)
        if node in settled or distance.get(node, dist + 1) < dist:
            continue
        settled.add(node)
        for customer in sorted(graph.customers(node)):
            cand = dist + 1
            if customer in route_class and distance[customer] <= cand:
                continue
            if customer in route_class and route_class[customer] is not RouteClass.PROVIDER:
                continue  # customer/peer routes are always preferred
            route_class[customer] = RouteClass.PROVIDER
            distance[customer] = cand
            next_hop[customer] = node
            heapq.heappush(heap, (cand, customer))

    return DictRoutingTree(
        destination=destination,
        route_class=route_class,
        distance=distance,
        next_hop=next_hop,
    )


def assert_tree_matches_dict(tree, reference: DictRoutingTree) -> None:
    """An array :class:`~repro.bgp.routing.RoutingTree` holds exactly the
    dict tree's routes: same routed ASes, next hops, distances, classes."""
    routed = np.flatnonzero(tree.distance >= 0)
    asns = tree.as_ids[routed].tolist()
    assert tree.destination == reference.destination
    assert set(asns) == set(reference.route_class)
    assert dict(zip(asns, tree.distance[routed].tolist())) == reference.distance
    assert dict(zip(asns, tree.route_class[routed].tolist())) == {
        asn: int(cls) for asn, cls in reference.route_class.items()
    }
    forwarding = routed[tree.next_hop[routed] >= 0]
    assert (
        dict(zip(tree.as_ids[forwarding].tolist(), tree.as_ids[tree.next_hop[forwarding]].tolist()))
        == reference.next_hop
    )
    unrouted = tree.distance < 0
    assert np.all(tree.next_hop[unrouted] == -1)


def scalar_delegate_matrices(
    model: LatencyModel, clusters: ClusterIndex
) -> DelegateMatrices:
    """``compute_delegate_matrices`` the scalar way (serial, no arrays)."""
    cluster_list = clusters.all_clusters()
    n = len(cluster_list)
    prefixes, index_of, asn_of, sizes, access = cluster_headers(cluster_list)
    rtt = np.full((n, n), UNREACHABLE, dtype=float)
    loss = np.full((n, n), 1.0, dtype=float)
    hops = np.full((n, n), -1, dtype=np.int64)
    fill_destinations(range(n), model, access, asn_of, rtt, loss, hops)
    for i in range(n):
        asn = int(asn_of[i])
        rtt[i, i] = 2.0 * model.endpoint_cost_ms(asn) + 4.0 * access[i]
        loss[i, i] = model.conditions.loss_of(asn)
        hops[i, i] = 0
    return DelegateMatrices(
        prefixes=prefixes,
        index_of=index_of,
        asn_of=asn_of,
        sizes=sizes,
        rtt_ms=rtt,
        loss=loss,
        as_hops=hops,
    )


def fill_destinations(
    columns: Sequence[int],
    model: LatencyModel,
    access: np.ndarray,
    asn_of: np.ndarray,
    rtt: np.ndarray,
    loss: np.ndarray,
    hops: np.ndarray,
    positions: Optional[Sequence[int]] = None,
) -> None:
    """Fill the given destination columns of the matrices.

    ``positions`` are the output column positions matching ``columns``
    (defaults to enumeration order, the sampled-column block layout).
    """
    unique_ases = sorted(set(int(a) for a in asn_of))
    rows_of_as: Dict[int, List[int]] = {}
    for i, asn in enumerate(asn_of):
        rows_of_as.setdefault(int(asn), []).append(i)
    if positions is None:
        positions = range(len(columns))
    graph = model.router.graph
    trees: Dict[int, Optional[DictRoutingTree]] = {}
    for col, j in zip(positions, columns):
        dest_as = int(asn_of[j])
        if dest_as not in trees:
            dark = dest_as in model.conditions.failed_ases or dest_as not in graph
            trees[dest_as] = None if dark else dict_routing_tree(graph, dest_as)
        tree = trees[dest_as]
        if tree is None:
            continue
        lat_to, loss_to, hops_to = walk_tree(model, tree, unique_ases)
        for src_as in unique_ases:
            one_way = lat_to.get(src_as)
            if one_way is None:
                continue
            for i in rows_of_as[src_as]:
                rtt[i, col] = 2.0 * one_way + 2.0 * (access[i] + access[j])
                loss[i, col] = loss_to[src_as]
                hops[i, col] = hops_to[src_as]


def walk_tree(model: LatencyModel, tree, source_ases: List[int]):
    """Memoized walk of a routing tree: per-AS one-way latency / loss / hops.

    The memo stores *interior* path cost (links plus transit node costs,
    excluding both endpoints); endpoint processing is added per source so
    the result matches :meth:`LatencyModel.path_one_way_ms` exactly.
    """
    dest = tree.destination
    interior: Dict[int, float] = {dest: 0.0}
    survive: Dict[int, float] = {dest: 1.0 - model.conditions.loss_of(dest)}
    hops: Dict[int, int] = {dest: 0}

    def resolve(asn: int) -> bool:
        """Fill memo entries along the next-hop chain from ``asn``."""
        chain: List[int] = []
        node = asn
        while node not in interior:
            if not tree.reaches(node):
                return False
            chain.append(node)
            node = tree.next_hop[node]
        for source in reversed(chain):
            nh = tree.next_hop[source]
            transit = model.node_cost_ms(nh) if nh != dest else 0.0
            interior[source] = model.link_delay_ms(source, nh) + transit + interior[nh]
            survive[source] = (1.0 - model.conditions.loss_of(source)) * survive[nh]
            hops[source] = hops[nh] + 1
        return True

    lat_out: Dict[int, float] = {}
    loss_out: Dict[int, float] = {}
    hops_out: Dict[int, int] = {}
    dest_endpoint = model.endpoint_cost_ms(dest)
    for asn in source_ases:
        if asn in interior or resolve(asn):
            if asn == dest:
                lat_out[asn] = model.endpoint_cost_ms(asn)
            else:
                lat_out[asn] = (
                    model.endpoint_cost_ms(asn) + interior[asn] + dest_endpoint
                )
            loss_out[asn] = 1.0 - survive[asn]
            hops_out[asn] = hops[asn]
    return lat_out, loss_out, hops_out


def construct_close_cluster_set(
    own_cluster: int,
    own_as: int,
    graph: ASGraph,
    clusters_in_as: Callable[[int], List[int]],
    lat: Callable[[int, int], Optional[float]],
    loss: Callable[[int, int], Optional[float]],
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
            if rtt < config.lat_threshold_ms and lost < LOSS_THRESHOLD:
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


def _visit_as(
    result: CloseClusterSet,
    found: Dict[int, CloseClusterEntry],
    asn: int,
    depth: int,
    own_cluster: int,
    clusters_in_as: Callable[[int], List[int]],
    lat: Callable[[int, int], Optional[float]],
    loss: Callable[[int, int], Optional[float]],
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
        if rtt < config.lat_threshold_ms and lost < LOSS_THRESHOLD:
            found.setdefault(cluster, CloseClusterEntry(cluster, rtt, lost, depth))
            any_passed = True
    return any_passed


def _probe(
    result: CloseClusterSet,
    own_cluster: int,
    other: int,
    asn: int,
    lat: Callable[[int, int], Optional[float]],
    loss: Callable[[int, int], Optional[float]],
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


def valley_free_ball(graph: ASGraph, start: int, max_hops: int) -> Dict[int, int]:
    """Minimum valley-free hop count to every AS within ``max_hops``.

    This is the search order of ``construct-close-cluster-set()``:
    breadth-first from ``start`` under the valley-free constraint.
    The start AS itself is included with distance 0.
    """
    if start not in graph:
        raise TopologyError(f"unknown AS {start}")
    if max_hops < 0:
        raise TopologyError(f"max_hops must be >= 0, got {max_hops}")
    best: Dict[int, int] = {start: 0}
    # state: (asn, phase); visited per state to allow a node reached
    # downhill to later be reached uphill with further expansion rights.
    visited: Set[Tuple[int, int]] = {(start, _PHASE_UP)}
    queue = deque([(start, _PHASE_UP, 0)])
    while queue:
        node, phase, dist = queue.popleft()
        if dist == max_hops:
            continue
        for nxt, nxt_phase in graph._valley_free_steps(node, phase):
            state = (nxt, nxt_phase)
            if state in visited:
                continue
            visited.add(state)
            if nxt not in best or dist + 1 < best[nxt]:
                best[nxt] = dist + 1
            queue.append((nxt, nxt_phase, dist + 1))
    return best


def reference_close_set(system, cluster: int, online=None, meta_out=None, own_as=None):
    """Fig. 9 (:func:`construct_close_cluster_set`) over an
    :class:`ASAPSystem`'s world — scalar probes of the same matrix view,
    ``clusters_in_as`` filtered by the optional ``online`` mask.  The
    owner builds from its own AS unless ``own_as`` names another."""
    view = system.scenario.matrix_view()

    def lat(own: int, other: int) -> Optional[float]:
        value = view.rtt_cell(own, other)
        return value if np.isfinite(value) else None

    def loss(own: int, other: int) -> Optional[float]:
        return float(view.gather_loss(own, other)) if lat(own, other) is not None else None

    def clusters_in_as(asn: int) -> List[int]:
        in_as = np.flatnonzero(view.asn_of == asn).tolist()
        return [c for c in in_as if online is None or online[c]]

    return construct_close_cluster_set(
        cluster,
        int(view.asn_of[cluster]) if own_as is None else own_as,
        system.scenario.protocol_graph,
        clusters_in_as,
        lat,
        loss,
        system.config,
        meta_out=meta_out,
    )


def assert_arrays_are_the_set(close_set: CloseClusterSet) -> None:
    """The stored arrays' invariants: typed, aligned, ids strictly
    ascending; ``rows()`` hands them out as they are; the ``entries``
    view is their ascending image and cannot be written through."""
    ids, rtt_ms, loss, as_hops = (
        close_set.ids, close_set.rtt_ms, close_set.loss, close_set.as_hops
    )
    assert ids.dtype == as_hops.dtype == np.int64
    assert rtt_ms.dtype == loss.dtype == np.float64
    assert ids.shape == rtt_ms.shape == loss.shape == as_hops.shape == (len(close_set),)
    assert np.all(ids[1:] > ids[:-1])
    clusters, rtts = close_set.rows()
    assert clusters is ids and rtts is rtt_ms
    entries = close_set.entries
    assert list(entries) == ids.tolist() == close_set.clusters()
    assert [(e.cluster, e.rtt_ms, e.loss, e.as_hops) for e in entries.values()] == list(
        zip(ids.tolist(), rtt_ms.tolist(), loss.tolist(), as_hops.tolist())
    )
    with pytest.raises(TypeError):
        entries[-1] = None


def rtt_to(close_set: CloseClusterSet, cluster: int) -> float:
    """RTT of one close-set member; :class:`ProtocolError` when absent."""
    at, member = close_set._slot(cluster)
    if not member:
        raise ProtocolError(f"cluster {cluster} not in close set of {close_set.owner}")
    return float(close_set.rtt_ms[at])


def scalar_select_close_relay(
    s1: CloseClusterSet,
    s2: CloseClusterSet,
    cluster_size,
    close_set_of: Callable[[int], CloseClusterSet],
    config: Optional[ASAPConfig] = None,
) -> RelaySelection:
    """``select_close_relay`` the scalar way: Fig. 10 over the entries views.

    ``cluster_size[c]`` is cluster ``c``'s online host count;
    ``close_set_of`` fetches another surrogate's close cluster set (the
    two-hop step; each call is billed 2 messages).  The candidates are
    collected one at a time and packed into the selection's tables at
    the end.
    """
    if config is None:
        config = ASAPConfig()
    messages, queries = 2, 0  # h1 obtains S2 from h2 (request + response)

    # One-hop: intersect close sets.
    one_hop: List[Tuple[int, float, int]] = []
    common = sorted(set(s1.entries) & set(s2.entries))
    for cluster in common:
        size = int(cluster_size[cluster])
        if size <= 0:
            continue  # churned dark: no hosts left to relay through
        relay_rtt = rtt_to(s1, cluster) + rtt_to(s2, cluster) + RELAY_DELAY_RTT_MS
        if relay_rtt < config.lat_threshold_ms:
            one_hop.append((cluster, relay_rtt, size))

    two_hop: List[Tuple[int, int, float, int]] = []
    if sum(size for _, _, size in one_hop) < config.size_threshold:
        # Two-hop: expand through the close sets of one-hop candidate
        # clusters (the surrogates of clusters already known close to h1).
        seen_pairs: Dict[Tuple[int, int], float] = {}
        for r1, _, _ in one_hop:
            os1 = close_set_of(r1)
            messages += 2
            queries += 1
            for r2 in sorted(os1.entries):
                if r2 not in s2.entries or r2 == r1:
                    continue
                relay_rtt = (
                    rtt_to(s1, r1)
                    + rtt_to(os1, r2)
                    + rtt_to(s2, r2)
                    + 2.0 * RELAY_DELAY_RTT_MS
                )
                if relay_rtt < config.lat_threshold_ms:
                    key = (r1, r2)
                    if key not in seen_pairs or relay_rtt < seen_pairs[key]:
                        seen_pairs[key] = relay_rtt
        for (r1, r2), relay_rtt in sorted(seen_pairs.items()):
            pairs = int(cluster_size[r1]) * int(cluster_size[r2])
            if pairs <= 0:
                continue  # either leg's cluster has churned dark
            two_hop.append((r1, r2, relay_rtt, pairs))
    return RelaySelection(
        one_hop=np.array(one_hop, dtype=ONE_HOP),
        two_hop=np.array(two_hop, dtype=TWO_HOP),
        messages=messages,
        two_hop_queries=queries,
    )


class EntriesSnapshot(CloseClusterSet):
    """A close set whose ``entries`` view is derived once: the scalar
    oracle reads S2's entries once per two-hop candidate."""

    @functools.cached_property
    def entries(self):
        return CloseClusterSet.entries.fget(self)


def snapshot(close_set):
    return EntriesSnapshot(
        close_set.owner, close_set.ids, close_set.rtt_ms, close_set.loss, close_set.as_hops
    )


def dense_k_hops(
    matrices,
    threshold_ms: float = 300.0,
    quantile: float = 90.0,
    minimum: int = 2,
    maximum: int = 8,
) -> int:
    """The Section 6.2 hop-limit rule, verbatim on dense arrays."""
    mask = np.isfinite(matrices.rtt_ms) & (matrices.rtt_ms < threshold_ms)
    mask &= matrices.as_hops >= 0
    hops = matrices.as_hops[mask]
    if hops.size == 0:
        return 4
    derived = int(np.percentile(hops, quantile))
    return max(minimum, min(maximum, derived))


def ring_preference(ring: HashRing, key, count: Optional[int] = None) -> List[int]:
    """Distinct shards clockwise from the key's hash, walked point by
    point over ``ring``'s sorted points (the pre-memo ``preference``)."""
    if count is None:
        count = ring.shard_count
    count = min(count, ring.shard_count)
    hashes, shards = ring._hashes, ring._shards
    start = bisect.bisect_right(hashes, _stable_hash(f"key:{key}"))
    seen: List[int] = []
    for offset in range(len(shards)):
        shard = shards[(start + offset) % len(shards)]
        if shard not in seen:
            seen.append(shard)
            if len(seen) >= count:
                break
    return seen



# -- Section 7 scoring ---------------------------------------------------------


def min_plus_fold(world, second: np.ndarray) -> np.ndarray:
    """``w[k, i] = min_j ( rtt[i, j] + second[k, j] )`` folded block by
    block over every cell (the unpruned fold ``OPTMethod`` ran before it
    read only the cells that can beat a session's one-hop optimum)."""
    w = np.full(second.shape, np.inf, dtype=np.float64)
    for cols, rtt_block, _, _ in world.iter_column_blocks():
        for k in range(len(w)):
            np.minimum(w[k], np.min(rtt_block + second[k, cols], axis=1), out=w[k])
    return w


def reference_opt_scores(world, pairs, relay_delay_rtt_ms: float, lat_threshold_ms: float):
    """``(quality, best_one_hop, best_two_hop)`` per session, the two-hop
    optimum from :func:`min_plus_fold` over every cell.  The legs are read
    with ``gather_rtt`` and scored with ``OPTMethod``'s float association."""
    a = np.array([p[0] for p in pairs], dtype=np.int64)
    b = np.array([p[1] for p in pairs], dtype=np.int64)
    every = np.arange(world.count, dtype=np.int64)
    first = world.gather_rtt(a[:, None], every[None, :])
    second = world.gather_rtt(every[:, None], b[None, :]).T.copy()
    rows = np.arange(len(pairs))
    for legs in (first, second):
        legs[rows, a] = np.inf
        legs[rows, b] = np.inf
    path = first + second + relay_delay_rtt_ms
    quality = (path < lat_threshold_ms).astype(np.int64) @ world.sizes
    w = min_plus_fold(world, second)
    two_hop = np.min(first + w + 2.0 * relay_delay_rtt_ms, axis=1)
    return quality, np.min(path, axis=1), two_hop


def evaluate_session(method, world, a: int, b: int, session_id: int = 0):
    """One session through a method's batch primitive."""
    return method.evaluate_sessions(world, [(int(a), int(b))], session_ids=[int(session_id)])[0]


def best_one_hop(opt, world, a: int, b: int) -> Tuple[Optional[int], Optional[float]]:
    """(relay cluster, RTT) of OPT's one-hop optimum for one session; an
    endpoint's own cluster is the direct path, never a relay."""
    path, _, _ = opt._score(world, np.array([a]), np.array([b]), two_hop=False)
    idx = int(np.argmin(path[0]))
    value = float(path[0, idx])
    if not np.isfinite(value):
        return None, None
    return idx, value


def best_two_hop(opt, world, a: int, b: int) -> Optional[float]:
    """OPT's two-hop optimum for one session, exact whatever the one-hop
    optimum: the fold's bound is ``inf``.  Both endpoint clusters are
    masked out of the intermediate hops, as in :func:`best_one_hop`."""
    _, _, two_hop = opt._score(world, np.array([a]), np.array([b]), two_hop=True, prune=False)
    best = float(two_hop[0])
    return best if np.isfinite(best) else None


def reference_generate_workload(
    scenario, count: int, seed: int = 0, latent_target: Optional[int] = None
):
    """The scalar session draw loop
    :func:`repro.evaluation.sessions.generate_workload` ran before it drew
    sessions in blocks and looked each online host's cluster up once,
    verbatim: one ``rng.choice`` and one cell read per session (it counts
    ``latent_target`` at the 300 ms RTT threshold)."""
    from repro.evaluation.sessions import Session, SessionWorkload

    rng = derive_rng(seed, "workload")
    view = scenario.matrix_view()
    clusters = scenario.clusters
    finite_fraction = view.finite_row_fractions()
    online_clusters = {i for i in range(view.count) if finite_fraction[i] >= 0.5}
    hosts = [
        h
        for h in scenario.population.hosts
        if view.index_of[clusters.cluster_of(h.ip).prefix] in online_clusters
    ]
    workload = SessionWorkload()
    latent_found = 0
    cap = count * 50
    generated = 0
    while generated < count or (latent_target is not None and latent_found < latent_target):
        if generated >= cap:
            break
        i, j = rng.choice(len(hosts), size=2, replace=False)
        caller, callee = hosts[int(i)], hosts[int(j)]
        ca = view.index_of[clusters.cluster_of(caller.ip).prefix]
        cb = view.index_of[clusters.cluster_of(callee.ip).prefix]
        direct = view.rtt_cell(ca, cb)
        session = Session(
            session_id=generated,
            caller=caller.ip,
            callee=callee.ip,
            caller_cluster=ca,
            callee_cluster=cb,
            direct_rtt_ms=direct,
        )
        workload.sessions.append(session)
        generated += 1
        direct = session.direct_rtt_ms
        if not (np.isfinite(direct) and direct < RTT_THRESHOLD_MS):
            latent_found += 1
    return workload


def elect_every_group(system) -> None:
    """Elect every cluster's surrogate group from its full host list, in
    prefix order — what ``ASAPSystem.__init__`` did before a group was
    elected on its cluster's first touch.  Call it on a fresh system."""
    view = system.scenario.matrix_view()
    for cluster in system.scenario.clusters.all_clusters():
        idx = view.index_of[cluster.prefix]
        system._surrogates[idx] = system._elect_group(idx, cluster.asn, cluster.hosts)


def reference_top_degree_clusters(world, graph: ASGraph, count: int) -> List[int]:
    """Clusters ranked by their AS's connection degree, highest first,
    verbatim from ``repro.baselines.dedi`` before the degree array."""

    def degree_of(idx: int) -> int:
        asn = int(world.asn_of[idx])
        return graph.degree(asn) if asn in graph else 0

    ranked = sorted(range(world.count), key=lambda i: (-degree_of(i), i))
    return ranked[:count]


def reference_host_table(clusters: ClusterIndex, hosts, index_of) -> Tuple[list, List[int]]:
    """Each host's IP and matrix cluster index: the per-host loop
    ``generate_workload`` ran on every call."""
    return [h.ip for h in hosts], [index_of[clusters.cluster_of(h.ip).prefix] for h in hosts]


# -- media plane ---------------------------------------------------------------


@dataclass(frozen=True)
class SentFrame:
    """One codec frame as emitted by the sender."""

    sequence: int
    sent_ms: float
    codec: Codec


class FrameSource:
    """Paced frame generator with mid-stream codec switching: each frame
    advances the clock by the *current* codec's interval."""

    def __init__(self, codec: Codec, start_ms: float = 0.0) -> None:
        self.codec = codec
        self._next_ms = float(start_ms)
        self._next_seq = 0

    def switch(self, codec: Codec) -> None:
        """Use ``codec`` for all frames from the next one onward."""
        self.codec = codec

    def next_frame(self) -> SentFrame:
        frame = SentFrame(self._next_seq, round(self._next_ms, 3), self.codec)
        self._next_seq += 1
        self._next_ms += self.codec.packet_interval_ms()
        return frame

    def frames_until(self, end_ms: float) -> Iterable[SentFrame]:
        """Generate every frame with a send time strictly before ``end_ms``."""
        while self._next_ms < end_ms:
            yield self.next_frame()


class ReferenceCodecAdapter:
    """Sliding-window codec adapter that re-sums its window per frame."""

    def __init__(self, policy: AdaptationPolicy) -> None:
        self.policy = policy
        self.codec: Codec = policy.primary
        self._window: Deque[bool] = deque(maxlen=policy.window_frames)
        self._dwell = 0

    def observe(self, sequence: int, at_ms: float, lost: bool) -> Optional[CodecSwitch]:
        self._window.append(lost)
        if self._dwell > 0:
            self._dwell -= 1
            return None
        if len(self._window) < self.policy.window_frames:
            return None
        loss = sum(self._window) / len(self._window)
        target: Optional[Codec] = None
        if self.codec is self.policy.primary and loss >= self.policy.down_loss:
            target = self.policy.fallback
        elif self.codec is self.policy.fallback and loss <= self.policy.up_loss:
            target = self.policy.primary
        if target is None:
            return None
        switch = CodecSwitch(
            at_ms=round(at_ms, 3),
            sequence=sequence,
            from_codec=self.codec.name,
            to_codec=target.name,
            window_loss=round(loss, 6),
        )
        self.codec = target
        self._dwell = self.policy.min_dwell_frames
        return switch


@dataclass(frozen=True)
class ReferencePlayedFrame:
    sequence: int
    status: str
    playout_ms: float
    depth_ms: float


class ReferenceJitterBuffer:
    """The EWMA playout buffer, one method call per estimator step."""

    def __init__(self, config: JitterBufferConfig) -> None:
        self.config = config
        self._d_hat = 0.0
        self._v_hat = 0.0
        self._seeded = False

    def _depth_ms(self) -> float:
        cfg = self.config
        return min(max(FACTOR * self._v_hat, cfg.min_depth_ms), cfg.max_depth_ms)

    def _observe(self, delay_ms: float) -> None:
        a = ALPHA
        if not self._seeded:
            self._d_hat, self._v_hat, self._seeded = delay_ms, 0.0, True
            return
        deviation = abs(delay_ms - self._d_hat)
        self._d_hat = a * self._d_hat + (1.0 - a) * delay_ms
        self._v_hat = a * self._v_hat + (1.0 - a) * deviation

    def play(self, trace: ReceivedTrace) -> List[ReferencePlayedFrame]:
        out: List[ReferencePlayedFrame] = []
        previous = float("-inf")
        for frame in trace.frames:
            depth = self._depth_ms()
            deadline = frame.sent_ms + self._d_hat + depth
            if deadline < previous:
                deadline = previous
            if frame.arrival_ms is None:
                status = "lost"
                playout = deadline
            else:
                delay = frame.arrival_ms - frame.sent_ms
                if not self._seeded:
                    self._observe(delay)
                    status = "played"
                    playout = max(frame.arrival_ms + depth, previous)
                else:
                    status = "played" if frame.arrival_ms <= deadline else "late"
                    playout = deadline
                    self._observe(delay)
            previous = playout
            out.append(
                ReferencePlayedFrame(frame.sequence, status, round(playout, 3), round(depth, 3))
            )
        return out


def _reference_dominant_codec(names: List[str]) -> str:
    counts = Counter(names)
    best = max(counts.values())
    for name in names:
        if counts[name] == best:
            return name
    return names[0]


def reference_score_trace(
    trace: ReceivedTrace,
    playout: List[ReferencePlayedFrame],
    window_ms: float,
) -> MeasuredScore:
    """Window scoring with every frame bucketed through a dict."""
    report = conceal(tuple(f.status != "played" for f in playout))
    duration = trace.duration_ms
    window_count = max(1, int(-(-duration // window_ms)))
    buckets: Dict[int, List[int]] = {}
    for i, frame in enumerate(trace.frames):
        idx = min(int(frame.sent_ms // window_ms), window_count - 1)
        buckets.setdefault(idx, []).append(i)

    windows: List[WindowScore] = []
    outages: List[OutageWindow] = []
    for idx in range(window_count):
        start = idx * window_ms
        end = min((idx + 1) * window_ms, duration)
        members = buckets.get(idx, [])
        if not members:
            continue
        played_idx = [i for i in members if playout[i].status == "played"]
        eff_loss = sum(report.weights[i] for i in members) / len(members)
        codec_name = _reference_dominant_codec([trace.frames[i].codec for i in members])
        if not played_idx:
            outages.append(OutageWindow(start_ms=start, end_ms=end))
            windows.append(
                WindowScore(
                    start_ms=start, end_ms=end, frames=len(members), played=0,
                    effective_loss=round(eff_loss, 6), mean_delay_ms=0.0,
                    codec=codec_name, mos=0.0,
                )
            )
            continue
        mean_delay = sum(
            playout[i].playout_ms - trace.frames[i].sent_ms for i in played_idx
        ) / len(played_idx)
        emodel = EModel(EModelConfig(codec=_codec_by_name(codec_name), jitter_buffer_ms=0.0))
        mos = emodel.mos(mean_delay, min(1.0, eff_loss))
        windows.append(
            WindowScore(
                start_ms=start, end_ms=end, frames=len(members),
                played=len(played_idx), effective_loss=round(eff_loss, 6),
                mean_delay_ms=round(mean_delay, 3), codec=codec_name,
                mos=round(mos, 6),
            )
        )

    flowing = [w for w in windows if not w.is_outage]
    if flowing:
        total_frames = sum(w.frames for w in flowing)
        base_mos = sum(w.mos * w.frames for w in flowing) / total_frames
    else:
        base_mos = 1.0
    impact = account_outages(base_mos, duration, outages)
    return MeasuredScore(
        mos=round(impact.effective_mos, 6),
        base_mos=round(base_mos, 6),
        windows=tuple(windows),
        outage_windows=tuple(outages),
        concealed_rate=round(report.concealed_rate, 6),
        effective_loss=round(report.effective_loss, 6),
        late_frames=sum(1 for f in playout if f.status == "late"),
        lost_frames=sum(1 for f in playout if f.status == "lost"),
    )


@dataclass(frozen=True)
class ReferenceMedia:
    trace: ReceivedTrace
    playout: List[ReferencePlayedFrame]
    score: MeasuredScore
    switches: Tuple[CodecSwitch, ...]


def reference_media_session(
    call_id: int,
    duration_ms: float,
    path: Sequence[PathWindow],
    outages: Sequence[OutageWindow] = (),
    config: MediaPlaneConfig = MediaPlaneConfig(),
    seed: int = 0,
) -> ReferenceMedia:
    """One media session, frame by frame: segment scan, channel draws,
    jitter draw, outage override, adapter — then buffer and scorer."""
    rng = derive_rng(seed, "media", str(call_id))
    adapter = ReferenceCodecAdapter(config.adaptation) if config.adaptation else None
    source = FrameSource(adapter.codec if adapter is not None else G729A_VAD)

    received: List[ReceivedFrame] = []
    switches: List[CodecSwitch] = []
    ge_bad = False
    for frame in source.frames_until(duration_ms):
        seg = path[0]
        for candidate in path:
            if candidate.start_ms <= frame.sent_ms:
                seg = candidate
            else:
                break
        if config.burst_frames is None:
            lost = bool(rng.random() < seg.loss_rate)
        else:
            r = 1.0 / config.burst_frames
            loss = seg.loss_rate
            p = 0.0 if loss <= 0 else (1.0 if loss >= 1 else min(1.0, r * loss / (1.0 - loss)))
            transition = rng.random()
            emission = rng.random()
            if ge_bad:
                if transition < r:
                    ge_bad = False
            else:
                if transition < p:
                    ge_bad = True
            lost = ge_bad and emission < 1.0
        jitter = (
            float(rng.exponential(config.jitter_mean_ms))
            if not lost and config.jitter_mean_ms > 0
            else 0.0
        )
        if any(w.start_ms <= frame.sent_ms < w.end_ms for w in outages):
            lost = True
        if lost:
            received.append(ReceivedFrame(frame.sequence, frame.sent_ms, None, frame.codec.name))
        else:
            arrival = frame.sent_ms + seg.rtt_ms / 2.0 + jitter
            received.append(
                ReceivedFrame(frame.sequence, frame.sent_ms, round(arrival, 3), frame.codec.name)
            )
        if adapter is not None:
            switch = adapter.observe(frame.sequence, frame.sent_ms, lost)
            if switch is not None:
                switches.append(switch)
                source.switch(adapter.codec)

    trace = ReceivedTrace(call_id=call_id, frames=tuple(received))
    playout = ReferenceJitterBuffer(config.jitterbuf).play(trace)
    score = reference_score_trace(trace, playout, config.window_ms)
    return ReferenceMedia(trace, playout, score, tuple(switches))


# -- CIDR containment -----------------------------------------------------------


def prefix_contains(prefix: IPv4Prefix, address: IPv4Address) -> bool:
    """True if ``address`` falls inside ``prefix``."""
    return (address.value & prefix.netmask_int()) == prefix.network


def prefix_contains_prefix(outer: IPv4Prefix, inner: IPv4Prefix) -> bool:
    """True if ``inner`` is equal to or more specific than ``outer``."""
    if inner.length < outer.length:
        return False
    return (inner.network & outer.netmask_int()) == outer.network


def reference_summarize_method(records: Sequence[MethodRecord]) -> MethodSummary:
    """``summarize_method`` one numpy reduction per statistic: the body
    it had before it folded them into one pass, which it must match
    float for float."""
    if not records:
        raise ValueError("cannot summarize zero records")
    methods = {r.method for r in records}
    if len(methods) != 1:
        raise ValueError(f"records mix methods: {sorted(methods)}")
    qp = np.array([r.quality_paths for r in records], dtype=float)
    rtts = np.array(
        [r.best_rtt_ms if r.best_rtt_ms is not None else np.inf for r in records]
    )
    mos = np.array(
        [r.highest_mos if r.highest_mos is not None else 1.0 for r in records]
    )
    msgs = np.array([r.messages for r in records], dtype=float)
    finite_rtts = rtts[np.isfinite(rtts)]
    return MethodSummary(
        method=methods.pop(),
        sessions=len(records),
        quality_paths_median=float(np.median(qp)),
        quality_paths_p90=float(np.percentile(qp, 90)),
        best_rtt_median_ms=float(np.median(finite_rtts)) if finite_rtts.size else float("inf"),
        best_rtt_p95_ms=float(np.percentile(finite_rtts, 95)) if finite_rtts.size else float("inf"),
        frac_best_below_300=float(np.mean(rtts < RTT_THRESHOLD_MS)),
        frac_rtt_above_1s=float(np.mean(~np.isfinite(rtts) | (rtts > 1000.0))),
        mos_median=float(np.median(mos)),
        frac_mos_below_2_9=float(np.mean(mos < 2.9)),
        frac_mos_above_3_6=float(np.mean(mos > 3.6)),
        messages_median=float(np.median(msgs)),
        messages_p90=float(np.percentile(msgs, 90)),
    )


class ReferenceSimulator(Simulator):
    """The scheduler's ordering model: a step-per-event loop, spawn only."""

    def start(self, coro) -> None:
        self.spawn(coro)

    def step(self) -> bool:
        if self._ready:
            self._drain()
        if not self._queue:
            return False
        event = heapq.heappop(self._queue)
        self._now_ms = event.time_ms
        event.action()
        if self._ready:
            self._drain()
        return True

    def run(self, until_ms: Optional[float] = None, max_events: Optional[int] = None) -> int:
        executed = 0
        if self._ready:
            self._drain()
        while self._queue:
            if until_ms is not None and self._queue[0].time_ms > until_ms:
                break
            if max_events is not None and executed >= max_events:
                break
            self.step()
            executed += 1
        if until_ms is not None and self._now_ms < until_ms:
            self._now_ms = until_ms
        return executed
