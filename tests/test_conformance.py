"""Conformance tests: fast implementations vs slow reference oracles.

Each test re-implements a core algorithm in the most obviously-correct
(and slow) way and checks the production code agrees on real scenarios.
"""

import dataclasses

import numpy as np
import pytest

from repro.bgp.asgraph import ASGraph
from repro.core import ASAPConfig, ASAPSystem
from repro.core.relay_selection import select_close_relay
from repro.scenario import tiny_scenario
from repro.worldarrays.closesets import LOSS_THRESHOLD
from tests.oracles import best_one_hop, best_two_hop


@pytest.fixture(scope="module")
def scenario():
    return tiny_scenario(seed=11)


@pytest.fixture(scope="module")
def system(scenario):
    return ASAPSystem(scenario, ASAPConfig(k_hops=4))


def reference_close_set(system, scenario, cluster_index, config):
    """Oracle: membership criterion applied over the valley-free ball.

    A cluster belongs to the close set iff it lies in some AS reachable
    from the owner's AS by a valley-free walk of ≤ k hops *that only
    passes through "expandable" ASes* — where a populated AS is
    expandable iff at least one of its clusters passes the thresholds.
    Implemented as a BFS that re-checks the criterion with no shared
    state with the production code.
    """
    matrices = scenario.matrices
    graph = scenario.protocol_graph
    own_as = int(matrices.asn_of[cluster_index])
    if own_as not in graph:
        return {cluster_index} if False else set()

    def clusters_in(asn):
        return [i for i in range(matrices.count) if int(matrices.asn_of[i]) == asn]

    def passes(other):
        rtt = matrices.rtt_ms[cluster_index, other]
        loss = matrices.loss[cluster_index, other]
        return (
            np.isfinite(rtt)
            and rtt < config.lat_threshold_ms
            and loss < LOSS_THRESHOLD
        )

    def expandable(asn):
        members = clusters_in(asn)
        if not members:
            return True
        return any(passes(m) for m in members)

    # BFS over (asn, phase) with expansion gating, mirroring Fig. 9 from
    # scratch (phases: 0 = may climb, 1 = descend only).
    members = set()
    for cluster in clusters_in(own_as):
        if cluster == cluster_index or passes(cluster):
            members.add(cluster)
    visited = {(own_as, 0)}
    frontier = [(own_as, 0)]
    for _ in range(config.k_hops):
        next_frontier = []
        for asn, phase in frontier:
            steps = []
            if phase == 0:
                steps += [(p, 0) for p in graph.providers(asn)]
                steps += [(p, 1) for p in graph.peers(asn)]
            steps += [(c, 1) for c in graph.customers(asn)]
            steps += [(s, phase) for s in graph.siblings(asn)]
            for nxt, nxt_phase in steps:
                state = (nxt, nxt_phase)
                if state in visited:
                    continue
                visited.add(state)
                for cluster in clusters_in(nxt):
                    if passes(cluster):
                        members.add(cluster)
                if expandable(nxt):
                    next_frontier.append(state)
        frontier = next_frontier
    return members


class TestCloseSetConformance:
    @pytest.mark.parametrize("cluster_index", [0, 5, 13, 27, 40])
    def test_matches_reference(self, scenario, system, cluster_index):
        if cluster_index >= scenario.matrices.count:
            pytest.skip("cluster index out of range in tiny world")
        config = system.config
        fast = set(system.close_set(cluster_index).entries)
        slow = reference_close_set(system, scenario, cluster_index, config)
        assert fast == slow


def reference_opt_one_hop(matrices, a, b, relay_delay=40.0):
    """Oracle: plain loop over every relay cluster."""
    best = None
    for c in range(matrices.count):
        if c in (a, b):
            continue
        rtt = matrices.rtt_ms[a, c] + matrices.rtt_ms[c, b] + relay_delay
        if np.isfinite(rtt) and (best is None or rtt < best):
            best = float(rtt)
    return best


#: Session pairs each OPT conformance test scores in one batch: more than
#: one sweep's worth, so the batch crosses the kernel's sweep boundary.
_OPT_PAIRS = 140
#: The cluster whose row the "unreachable" world cuts to ``inf``.
_CUT = 3


@pytest.fixture(scope="module")
def opt_worlds(scenario, tmp_path_factory):
    """``(matrices the oracles read, view OPT reads, session pairs)`` per
    world: dense; the streamed view at a chunk width that does not
    divide N; and dense with cluster ``_CUT``'s row cut to ``inf``,
    calling from it first."""
    from repro.storage.columns import ColumnStore
    from repro.worldarrays.virtual import VirtualMatrices

    matrices = scenario.matrices
    rng = np.random.default_rng(3)
    pairs = [
        (int(a), int(b))
        for a, b in rng.integers(0, matrices.count, (_OPT_PAIRS, 2))
        if a != b
    ]
    clusters = scenario.clusters.all_clusters()
    chunk = 7
    assert len(clusters) % chunk != 0
    store = ColumnStore(tmp_path_factory.mktemp("opt"), key="opt", n=len(clusters), chunk=chunk)
    view = VirtualMatrices(scenario.latency, clusters, chunk_columns=chunk, store=store)
    rtt = matrices.rtt_ms.copy()
    rtt[_CUT, :] = np.inf
    cut = dataclasses.replace(matrices, rtt_ms=rtt)
    return [
        (matrices, matrices, pairs),
        (matrices, view, pairs),
        (cut, cut, [(_CUT, 0)] + pairs),
    ]


def _assert_best(fast, slow):
    if slow is None:
        assert fast is None
    else:
        assert fast == pytest.approx(slow)


class TestOptConformance:
    def test_matches_reference(self, opt_worlds):
        from repro.baselines import OPTMethod
        from repro.baselines.opt import SESSION_BATCH

        opt = OPTMethod(include_two_hop=False)
        for matrices, view, pairs in opt_worlds:
            assert len(pairs) > SESSION_BATCH
            batch = opt.evaluate_sessions(view, pairs)
            assert len(batch) == len(pairs)
            for (a, b), result in zip(pairs, batch):
                _assert_best(result.best_rtt_ms, reference_opt_one_hop(matrices, a, b))
            for a, b in pairs[:15]:
                _, fast = best_one_hop(opt, view, a, b)
                _assert_best(fast, reference_opt_one_hop(matrices, a, b))


def reference_two_hop(matrices, a, b, relay_delay=40.0):
    """Oracle: O(N²) loop over relay cluster pairs.  The endpoints are
    not eligible intermediates (a host cannot relay its own call);
    i == j is allowed, as in the vectorized min-plus formulation."""
    best = None
    n = matrices.count
    for i in range(n):
        if i in (a, b):
            continue
        for j in range(n):
            if j in (a, b):
                continue
            rtt = (
                matrices.rtt_ms[a, i]
                + matrices.rtt_ms[i, j]
                + matrices.rtt_ms[j, b]
                + 2 * relay_delay
            )
            if np.isfinite(rtt) and (best is None or rtt < best):
                best = float(rtt)
    return best


class TestTwoHopConformance:
    def test_matches_reference(self, opt_worlds):
        from repro.baselines import OPTMethod

        opt = OPTMethod()
        for matrices, view, pairs in opt_worlds:
            batch = opt.evaluate_sessions(view, pairs)
            assert len(batch) == len(pairs)
            for (a, b), result in zip(pairs, batch):
                one = reference_opt_one_hop(matrices, a, b)
                two = reference_two_hop(matrices, a, b)
                bests = [r for r in (one, two) if r is not None]
                _assert_best(result.best_rtt_ms, min(bests) if bests else None)
            for a, b in pairs[:20]:
                _assert_best(best_two_hop(opt, view, a, b), reference_two_hop(matrices, a, b))


def reference_valley_free_distance(graph: ASGraph, src: int, dst: int, cap: int = 8):
    """Oracle: exhaustive DFS enumeration of valley-free paths up to cap."""
    if src == dst:
        return 0
    best = [None]

    def walk(node, phase, dist, seen):
        if best[0] is not None and dist >= best[0]:
            return
        if dist >= cap:
            return
        steps = []
        if phase == 0:
            steps += [(p, 0) for p in graph.providers(node)]
            steps += [(p, 1) for p in graph.peers(node)]
        steps += [(c, 1) for c in graph.customers(node)]
        steps += [(s, phase) for s in graph.siblings(node)]
        for nxt, nxt_phase in steps:
            if nxt == dst:
                if best[0] is None or dist + 1 < best[0]:
                    best[0] = dist + 1
                continue
            if nxt in seen:
                continue
            walk(nxt, nxt_phase, dist + 1, seen | {nxt})

    walk(src, 0, 0, {src})
    return best[0]


class TestValleyFreeConformance:
    def test_matches_reference_on_random_graphs(self):
        from repro.topology import TopologyConfig, generate_topology

        topo = generate_topology(
            TopologyConfig(tier1_count=3, tier2_count=6, tier3_count=12, seed=9)
        )
        graph = topo.graph
        ases = graph.ases()
        rng = np.random.default_rng(5)
        for _ in range(25):
            src, dst = (int(x) for x in rng.choice(ases, 2, replace=False))
            fast = graph.valley_free_distance(src, dst, max_hops=8)
            slow = reference_valley_free_distance(graph, src, dst, cap=8)
            assert fast == slow, f"{src}->{dst}: fast={fast} slow={slow}"
