"""Cross-module property tests (hypothesis) on core invariants."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import OPTMethod
from repro.bgp.asgraph import ASGraph
from repro.bgp.pathinfer import infer_as_path
from repro.bgp.routing import PolicyRouter
from repro.core import ASAPConfig, ASAPSystem
from repro.core.protocol import _ComputedSets
from repro.core.relay_selection import select_close_relay
from repro.evaluation.sessions import _distinct_pairs, generate_workload
from repro.measurement.latency import RELAY_DELAY_RTT_MS
from repro.baselines.opt import SESSION_BATCH
from repro.scenario import ScenarioConfig, build_scenario, tiny_scenario
from repro.storage.columns import ColumnStore
from repro.topology import TopologyConfig, generate_topology
from repro.util.rng import derive_rng
from repro.voip.quality import RTT_THRESHOLD_MS
from repro.worldarrays.closesets import LOSS_THRESHOLD, CloseClusterEntry, CloseClusterSet
from repro.worldarrays.virtual import VirtualMatrices
from tests.oracles import (
    best_one_hop,
    best_two_hop,
    construct_close_cluster_set,
    reference_generate_workload,
    reference_opt_scores,
    rtt_to,
    valley_free_ball,
)


def random_annotated_graph(seed: int, n: int = 12) -> ASGraph:
    """A small random annotated graph (always includes a tier-1 pair)."""
    rng = derive_rng(seed, "prop-graph")
    g = ASGraph()
    g.add_peer(1, 2)
    for asn in range(3, n + 1):
        g.add_as(asn)
        provider = int(rng.integers(1, asn))
        if g.relationship(provider, asn) is None:
            g.add_provider_customer(provider, asn)
        if rng.random() < 0.3:
            other = int(rng.integers(1, asn))
            if other != asn and g.relationship(other, asn) is None:
                if rng.random() < 0.5:
                    g.add_peer(other, asn)
                else:
                    g.add_provider_customer(other, asn)
    return g


class TestGraphProperties:
    @given(st.integers(0, 40))
    @settings(max_examples=25, deadline=None)
    def test_ball_monotone_in_radius(self, seed):
        g = random_annotated_graph(seed)
        start = 3
        previous = set()
        for k in range(0, 5):
            ball = set(valley_free_ball(g, start, k))
            assert previous <= ball, "ball must grow monotonically with k"
            previous = ball

    @given(st.integers(0, 40))
    @settings(max_examples=25, deadline=None)
    def test_ball_distances_match_pairwise_distance(self, seed):
        g = random_annotated_graph(seed)
        ball = valley_free_ball(g, 3, 4)
        for node, dist in ball.items():
            direct = g.valley_free_distance(3, node)
            assert direct is not None
            assert direct == dist

    @given(st.integers(0, 40))
    @settings(max_examples=25, deadline=None)
    def test_inferred_path_never_beats_ball_distance(self, seed):
        g = random_annotated_graph(seed)
        for dst in list(g.ases())[:6]:
            path = infer_as_path(g, 3, dst)
            dist = g.valley_free_distance(3, dst)
            if path is None:
                assert dist is None
            else:
                assert len(path) - 1 == dist

    @given(st.integers(0, 40))
    @settings(max_examples=20, deadline=None)
    def test_policy_path_at_least_shortest_valley_free(self, seed):
        g = random_annotated_graph(seed)
        router = PolicyRouter(g)
        for dst in list(g.ases())[:5]:
            selected = router.as_path(3, dst)
            if selected is None:
                continue
            shortest = g.valley_free_distance(3, dst)
            assert shortest is not None
            assert len(selected) - 1 >= shortest

    @given(st.integers(0, 40))
    @settings(max_examples=15, deadline=None)
    def test_policy_subpath_consistency(self, seed):
        # Hop-by-hop forwarding: the next hop's selected path to the
        # same destination is the tail of the current path.
        g = random_annotated_graph(seed)
        router = PolicyRouter(g)
        for dst in list(g.ases())[:4]:
            tree = router.tree(dst)
            for src in g.ases():
                path = tree.path_from(src)
                if path is None or len(path) < 2:
                    continue
                assert tree.path_from(path[1]) == path[1:]


class TestCloseSetProperties:
    def _world(self, seed):
        topo = generate_topology(
            TopologyConfig(tier1_count=3, tier2_count=8, tier3_count=30, seed=seed)
        )
        graph = topo.graph
        stubs = topo.stub_ases()
        clusters_in_as = lambda asn: [asn] if asn in stubs else []
        rng = derive_rng(seed, "prop-lat")
        cache = {}

        def lat(a, b):
            key = (min(a, b), max(a, b))
            if key not in cache:
                cache[key] = float(rng.uniform(20.0, 400.0))
            return cache[key]

        loss = lambda a, b: 0.0
        return topo, graph, stubs, clusters_in_as, lat, loss

    @given(st.integers(0, 20))
    @settings(max_examples=10, deadline=None)
    def test_close_set_monotone_in_k(self, seed):
        topo, graph, stubs, cin, lat, loss = self._world(seed)
        own = stubs[0]
        previous = set()
        for k in (1, 2, 3, 4):
            result = construct_close_cluster_set(
                own, own, graph, cin, lat, loss, ASAPConfig(k_hops=k)
            )
            current = set(result.entries)
            assert previous <= current
            previous = current

    @given(st.integers(0, 20))
    @settings(max_examples=10, deadline=None)
    def test_close_set_within_valley_free_ball(self, seed):
        topo, graph, stubs, cin, lat, loss = self._world(seed)
        own = stubs[0]
        k = 3
        result = construct_close_cluster_set(
            own, own, graph, cin, lat, loss, ASAPConfig(k_hops=k)
        )
        ball = valley_free_ball(graph, own, k)
        for cluster in result.entries:
            assert cluster in ball

    @given(st.integers(0, 20))
    @settings(max_examples=10, deadline=None)
    def test_close_set_entries_meet_thresholds(self, seed):
        topo, graph, stubs, cin, lat, loss = self._world(seed)
        own = stubs[0]
        config = ASAPConfig(k_hops=3, lat_threshold_ms=250.0)
        result = construct_close_cluster_set(own, own, graph, cin, lat, loss, config)
        for cluster, entry in result.entries.items():
            if cluster == own:
                continue
            assert entry.rtt_ms < config.lat_threshold_ms
            assert entry.loss < LOSS_THRESHOLD



@pytest.fixture(scope="module")
def tiny_close_sets():
    """A ``tiny`` system's builder, each cluster's AS, and each cluster's
    one-source :meth:`FlatCloseSetBuilder.build`."""
    scenario = tiny_scenario(0)
    builder = ASAPSystem(scenario, ASAPConfig()).close_set_builder
    asn_of = scenario.matrix_view().asn_of.tolist()
    return builder, asn_of, [builder.build(c, asn) for c, asn in enumerate(asn_of)]


#: One step on the computed-set table: the operation and the clusters it
#: names (drawn as indices, reduced modulo the cluster count).
_TABLE_STEP = st.tuples(
    st.sampled_from(("want", "take", "build")),
    st.lists(st.integers(0, 10_000), min_size=1, max_size=5),
)


class TestComputedSetTable:
    @given(steps=st.lists(_TABLE_STEP, max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_every_set_handed_out_is_a_one_source_build(self, tiny_close_sets, steps):
        builder, asn_of, reference = tiny_close_sets
        table = _ComputedSets(builder)
        for op, picks in steps:
            clusters = [pick % len(asn_of) for pick in picks]
            if op == "want":
                for cluster in clusters:
                    table.want(cluster, asn_of[cluster])
            elif op == "take":
                sources = {cluster: asn_of[cluster] for cluster in clusters}
                taken = table.take(sources)
                assert list(taken) == list(sources)
                for cluster, close_set in taken.items():
                    assert close_set == reference[cluster]
            else:
                cluster = clusters[0]
                assert table.build(cluster, asn_of[cluster]) == reference[cluster]


def close_set_strategy(owner: int):
    entry = st.tuples(
        st.integers(0, 30),
        st.floats(min_value=1.0, max_value=280.0),
    )
    return st.lists(entry, max_size=15).map(
        lambda pairs: _build_set(owner, pairs)
    )


def _build_set(owner, pairs):
    cs = CloseClusterSet(owner=owner)
    for cluster, rtt in pairs:
        cs.add(CloseClusterEntry(cluster, rtt, 0.0, 1))  # a member keeps its entry
    return cs


class TestRelaySelectionProperties:
    @given(close_set_strategy(100), close_set_strategy(200))
    @settings(max_examples=60, deadline=None)
    def test_message_accounting_formula(self, s1, s2):
        config = ASAPConfig(size_threshold=10**9)
        result = select_close_relay(
            s1, s2, np.ones(31, dtype=int), lambda idx: _build_set(idx, []), config
        )
        assert result.messages == 2 + 2 * result.two_hop_queries
        assert result.two_hop_queries == len(result.one_hop)

    @given(close_set_strategy(100), close_set_strategy(200))
    @settings(max_examples=60, deadline=None)
    def test_one_hop_candidates_in_intersection(self, s1, s2):
        config = ASAPConfig(size_threshold=0)
        result = select_close_relay(
            s1, s2, np.ones(31, dtype=int), lambda idx: _build_set(idx, []), config
        )
        common = set(s1.entries) & set(s2.entries)
        for cluster, relay_rtt_ms, _ in result.one_hop.tolist():
            assert cluster in common
            assert relay_rtt_ms < config.lat_threshold_ms
            assert relay_rtt_ms == pytest.approx(
                rtt_to(s1, cluster) + rtt_to(s2, cluster) + RELAY_DELAY_RTT_MS
            )

    @given(close_set_strategy(100), close_set_strategy(200))
    @settings(max_examples=40, deadline=None)
    def test_quality_paths_nonnegative_and_consistent(self, s1, s2):
        result = select_close_relay(
            s1, s2, np.full(31, 2), lambda idx: _build_set(idx, []), ASAPConfig()
        )
        assert result.quality_paths == result.one_hop_ips + result.two_hop_pairs
        assert result.one_hop_ips == 2 * len(result.one_hop)


class TestOptLowerBoundsAsap:
    """OPT lower-bounds ASAP over the same path space, scored the same way.

    ASAP's *believed* relay RTT (what Fig. 10 computes) can sit below
    OPT's: the delegate matrix is twice the *forward* one-way path, so
    it is asymmetric, and Fig. 10 reads S2's own measurement
    ``rtt[b, r]`` where OPT scores the leg the media travels,
    ``rtt[r, b]``; ASAP also admits relays inside an endpoint's own
    cluster, which OPT masks as the direct path.  The invariant is on
    the *realized* RTT: every ASAP candidate outside the endpoints'
    clusters, re-scored with OPT's formula, is no better than OPT.
    """

    @given(st.integers(0, 200))
    @settings(max_examples=6, deadline=None)
    def test_no_asap_candidate_beats_opt_scored_alike(self, seed):
        scenario = tiny_scenario(seed=seed)
        matrices = scenario.matrices
        rtt = matrices.rtt_ms
        system = ASAPSystem(scenario, ASAPConfig())
        opt = OPTMethod()
        delay = RELAY_DELAY_RTT_MS
        workload = generate_workload(scenario, 200, seed=seed, latent_target=20)
        for session in workload.latent()[:20]:
            a, b = session.caller_cluster, session.callee_cluster
            selection = system.call(session.caller, session.callee).selection
            realized = [
                rtt[a, cluster] + rtt[cluster, b] + delay
                for cluster in selection.one_hop["cluster"].tolist()
                if cluster not in (a, b)
            ] + [
                rtt[a, first] + rtt[first, second] + rtt[second, b] + 2.0 * delay
                for first, second in zip(
                    selection.two_hop["first"].tolist(), selection.two_hop["second"].tolist()
                )
                if not {first, second} & {a, b}
            ]
            if not realized:
                continue
            bounds = (best_one_hop(opt, matrices, a, b)[1], best_two_hop(opt, matrices, a, b))
            best = min(bound for bound in bounds if bound is not None)
            assert best <= min(realized) + 1e-9


#: Columns per streamed chunk: divides neither world's N, so the last
#: block is short and every session's columns span several blocks.
_STREAM_CHUNK = 64


@pytest.fixture(scope="module")
def scenarios(tmp_path_factory):
    """``get(scale, seed, streamed)``: a scenario whose matrix view is the
    dense fill or a streamed ``VirtualMatrices`` (built once each)."""
    built = {}

    def get(scale: str, seed: int, streamed: bool):
        key = (scale, seed, streamed)
        if key not in built:
            scenario = build_scenario(ScenarioConfig.preset(scale, seed))
            if streamed:
                clusters = scenario.clusters.all_clusters()
                store = ColumnStore(
                    tmp_path_factory.mktemp("stream"),
                    key=f"{scale}-{seed}",
                    n=len(clusters),
                    chunk=_STREAM_CHUNK,
                )
                scenario.attach_virtual_matrices(
                    VirtualMatrices(
                        scenario.latency, clusters, chunk_columns=_STREAM_CHUNK, store=store
                    )
                )
            built[key] = scenario
        return built[key]

    return get


class TestOptPrunedFoldIsExact:
    """OPT's two-hop fold reads only the cells the one-hop bound keeps;
    every record must equal the full min-plus fold's, float for float."""

    @given(
        world=st.sampled_from([("tiny", 0), ("tiny", 3), ("small", 0)]),
        kind=st.sampled_from(["dense", "streamed", "cut"]),
        size=st.sampled_from([1, 5, SESSION_BATCH + 1]),
        draw_seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=15, deadline=None)
    def test_matches_full_fold(self, scenarios, world, kind, size, draw_seed):
        scale, seed = world
        view = scenarios(scale, seed, kind == "streamed").matrix_view()
        n = view.count
        rng = np.random.default_rng(draw_seed)
        pairs = [tuple(int(x) for x in pair) for pair in rng.integers(0, n, (size, 2))]
        pairs[0] = (pairs[0][0], pairs[0][0])  # a same-cluster pair
        if kind == "cut":  # one unreachable row and one unreachable column
            row, col = (int(x) for x in rng.integers(0, n, 2))
            rtt = view.rtt_ms.copy()
            rtt[row, :] = np.inf
            rtt[:, col] = np.inf
            view = dataclasses.replace(view, rtt_ms=rtt)
            pairs[-1] = (row, col)
        opt = OPTMethod()
        results = opt.evaluate_sessions(view, pairs)
        quality, one, two = reference_opt_scores(
            view, pairs, RELAY_DELAY_RTT_MS, RTT_THRESHOLD_MS
        )
        best = np.minimum(one, two)
        assert [r.quality_paths for r in results] == quality.tolist()
        assert [r.best_rtt_ms for r in results] == [
            float(x) if np.isfinite(x) else None for x in best
        ]
        for k, (a, b) in enumerate(pairs[:3]):
            exact = float(two[k]) if np.isfinite(two[k]) else None
            assert best_two_hop(opt, view, a, b) == exact


class TestWorkloadMatchesOracle:
    """One cluster lookup per online host draws the same sessions as a
    lookup per endpoint of every pair."""

    @pytest.mark.parametrize("scale", ["tiny", "small"])
    @pytest.mark.parametrize("streamed", [False, True], ids=["dense", "streamed"])
    @pytest.mark.parametrize("latent_target", [None, 15])
    def test_same_sessions(self, scenarios, scale, streamed, latent_target):
        scenario = scenarios(scale, 0, streamed)
        count = 300 if latent_target is None else 10  # the target drives the loop
        fast = generate_workload(scenario, count, seed=4, latent_target=latent_target)
        slow = reference_generate_workload(scenario, count, seed=4, latent_target=latent_target)
        assert len(fast.sessions) > count or latent_target is None
        assert fast.sessions == slow.sessions
        assert [type(s.direct_rtt_ms) for s in fast.sessions[:3]] == [float] * 3

    @given(
        world=st.sampled_from([("tiny", False), ("tiny", True), ("small", False), ("small", True)]),
        seed=st.integers(0, 10_000),
        count=st.integers(1, 120),
        latent_target=st.one_of(st.none(), st.integers(0, 400)),
    )
    @settings(max_examples=25, deadline=None)
    def test_block_draws_equal_the_scalar_loop(self, scenarios, world, seed, count, latent_target):
        scale, streamed = world
        scenario = scenarios(scale, 0, streamed)
        fast = generate_workload(scenario, count, seed=seed, latent_target=latent_target)
        slow = reference_generate_workload(scenario, count, seed=seed, latent_target=latent_target)
        assert fast.sessions == slow.sessions
        assert all(
            type(s.direct_rtt_ms) is float and type(s.caller_cluster) is int
            for s in fast.sessions
        )

    @pytest.mark.parametrize("streamed", [False, True], ids=["dense", "streamed"])
    def test_the_cap_cuts_the_same_session(self, scenarios, streamed):
        scenario = scenarios("tiny", 0, streamed)
        fast = generate_workload(scenario, 2, seed=1, latent_target=10_000)
        assert len(fast) == 2 * 50  # the cap, not the target, ended the loop
        assert fast.sessions == reference_generate_workload(
            scenario, 2, seed=1, latent_target=10_000
        ).sessions


class TestBlockDrawMatchesChoice:
    """``_distinct_pairs`` draws what ``rng.choice(n, 2, replace=False)``
    draws, call for call — the session workload's stream depends on it."""

    @given(
        seed=st.integers(0, 2**63 - 1),
        n=st.one_of(
            st.sampled_from([2, 3, 7, 2_795, 10**6, 2**31 + 11, 2**32 + 1, 3 * 10**9]),
            st.integers(2, 2**40),
        ),
        block=st.integers(1, 300),
    )
    @settings(max_examples=200, deadline=None)
    def test_block_equals_choice_per_draw(self, seed, n, block):
        first, second = _distinct_pairs(np.random.default_rng(seed), n, block)
        rng = np.random.default_rng(seed)
        want = [rng.choice(n, size=2, replace=False).tolist() for _ in range(block)]
        got = np.stack((first, second), axis=1).tolist()
        assert got == want, (
            "numpy's Generator.choice(n, 2, replace=False) no longer draws Floyd's "
            "pair then a one-swap shuffle: the session workload's stream changed"
        )
