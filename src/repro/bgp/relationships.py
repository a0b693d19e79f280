"""Gao-style AS relationship inference from observed AS paths.

The paper annotates its AS graph "using the inferring AS relationships
algorithm in [Gao 2001]".  This module implements that three-phase
heuristic over the AS paths of a RIB:

1. For each path, locate the *top provider* (highest-degree AS on the
   path); edges left of it climb uphill (right neighbor transits for the
   left one) and edges right of it descend (left neighbor transits for
   the right one).  Count transit votes per directed pair.
2. Classify each adjacent pair: strongly one-sided votes → provider-
   customer; votes in both directions of comparable magnitude → siblings.
3. Pairs with no transit evidence in either direction are peer-peer when
   their degrees are comparable, otherwise the higher-degree side is
   assumed to be the provider.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from repro.bgp.asgraph import ASGraph
from repro.bgp.rib import RIBEntry


#: Transit votes in both directions with max/min at most this make the
#: pair siblings.
SIBLING_RATIO = 1.0
#: An unvoted adjacent pair is peer-peer when max(degree)/min(degree) is
#: at most this.
PEER_DEGREE_RATIO = 60.0


def collect_paths(entries: Iterable[RIBEntry]) -> List[Tuple[int, ...]]:
    """Extract distinct prepending-collapsed AS paths from RIB entries."""
    seen: Set[Tuple[int, ...]] = set()
    paths: List[Tuple[int, ...]] = []
    for entry in entries:
        path = entry.without_prepending()
        if len(path) >= 1 and path not in seen:
            seen.add(path)
            paths.append(path)
    return paths


def path_degrees(paths: Sequence[Tuple[int, ...]]) -> Dict[int, int]:
    """Degree of each AS in the undirected adjacency implied by the paths."""
    adjacency: Dict[int, Set[int]] = defaultdict(set)
    for path in paths:
        for a, b in zip(path, path[1:]):
            adjacency[a].add(b)
            adjacency[b].add(a)
    for path in paths:
        for asn in path:
            adjacency.setdefault(asn, set())
    return {asn: len(neigh) for asn, neigh in adjacency.items()}


def infer_relationships(entries: Iterable[RIBEntry]) -> ASGraph:
    """Infer an annotated :class:`ASGraph` from RIB entries."""
    paths = collect_paths(entries)
    degrees = path_degrees(paths)

    # Phase 1: transit vote counting around each path's top provider.
    transit: Counter = Counter()  # transit[(u, v)]: u provides transit to v
    for path in paths:
        if len(path) < 2:
            continue
        top_index = max(range(len(path)), key=lambda i: (degrees[path[i]], -i))
        for i in range(len(path) - 1):
            left, right = path[i], path[i + 1]
            if i < top_index:
                transit[(right, left)] += 1  # climbing: right transits for left
            else:
                transit[(left, right)] += 1  # descending: left transits for right

    # Phase 2 + 3: classify each adjacent pair exactly once.
    graph = ASGraph()
    for asn in degrees:
        graph.add_as(asn)
    classified: Set[Tuple[int, int]] = set()
    for path in paths:
        for a, b in zip(path, path[1:]):
            key = (min(a, b), max(a, b))
            if key in classified:
                continue
            classified.add(key)
            _classify_pair(graph, a, b, transit, degrees)
    return graph


def _classify_pair(
    graph: ASGraph,
    a: int,
    b: int,
    transit: Counter,
    degrees: Dict[int, int],
) -> None:
    ab = transit[(a, b)]  # votes that a transits for b (a provider of b)
    ba = transit[(b, a)]
    if ab > 0 and ba > 0:
        if max(ab, ba) <= SIBLING_RATIO * min(ab, ba):
            graph.add_sibling(a, b)
        elif ab > ba:
            graph.add_provider_customer(a, b)
        else:
            graph.add_provider_customer(b, a)
        return
    if ab > 0:
        graph.add_provider_customer(a, b)
        return
    if ba > 0:
        graph.add_provider_customer(b, a)
        return
    # No transit evidence either way: peering between comparable ASes,
    # otherwise assume the bigger AS provides for the smaller one.
    deg_a = max(degrees.get(a, 1), 1)
    deg_b = max(degrees.get(b, 1), 1)
    if max(deg_a, deg_b) <= PEER_DEGREE_RATIO * min(deg_a, deg_b):
        graph.add_peer(a, b)
    elif deg_a > deg_b:
        graph.add_provider_customer(a, b)
    else:
        graph.add_provider_customer(b, a)


def inference_accuracy(truth: ASGraph, inferred: ASGraph) -> float:
    """Fraction of truth edges annotated identically in ``inferred``.

    Used by tests to check the inference pipeline against synthetic
    topologies whose ground-truth annotations are known.  Edges missing
    from ``inferred`` count as wrong.
    """
    total = 0
    correct = 0
    seen: Set[Tuple[int, int]] = set()
    for a in truth.ases():
        for b in truth.neighbors(a):
            key = (min(a, b), max(a, b))
            if key in seen:
                continue
            seen.add(key)
            total += 1
            rel_truth = truth.relationship(a, b)
            rel_inferred = inferred.relationship(a, b) if a in inferred and b in inferred else None
            if rel_truth != rel_inferred:
                continue
            if truth.is_provider_of(a, b) == inferred.is_provider_of(a, b):
                correct += 1
    return correct / total if total else 1.0
