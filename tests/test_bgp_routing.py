"""Unit + property tests for the BGP policy routing engine."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.errors import TopologyError
from repro.bgp import ASGraph, PolicyRouter, RouteClass
from repro.bgp import routing
from repro.bgp.csr import GraphCSR
from repro.bgp.routing import UNROUTED
from repro.topology import TopologyConfig, generate_topology
from tests.oracles import assert_tree_matches_dict, counter_value, dict_routing_tree


def diamond():
    g = ASGraph()
    g.add_peer(1, 2)
    g.add_provider_customer(1, 3)
    g.add_provider_customer(2, 4)
    g.add_provider_customer(3, 5)
    g.add_provider_customer(4, 5)
    return g


class TestPolicyRoutesOnDiamond:
    def test_customer_route_preferred(self):
        router = PolicyRouter(diamond())
        # 3's route to 5: learned from customer 5 directly.
        route = router.route(3, 5)
        assert route.route_class is RouteClass.CUSTOMER
        assert route.as_path == (3, 5)

    def test_origin_route(self):
        router = PolicyRouter(diamond())
        route = router.route(5, 5)
        assert route.route_class is RouteClass.ORIGIN
        assert route.as_path == (5,)

    def test_provider_route_when_no_other(self):
        router = PolicyRouter(diamond())
        # 5's route to 1 must climb to a provider.
        route = router.route(5, 1)
        assert route.route_class is RouteClass.PROVIDER
        assert route.as_path == (5, 3, 1)

    def test_peer_route(self):
        router = PolicyRouter(diamond())
        # 1's route to 4: peer 2 has a customer route to 4.
        route = router.route(1, 4)
        assert route.route_class is RouteClass.PEER
        assert route.as_path == (1, 2, 4)

    def test_valley_free_guarantee(self):
        g = diamond()
        router = PolicyRouter(g)
        # 3's route to 4 cannot be the valley 3-5-4.
        route = router.route(3, 4)
        assert route.as_path == (3, 1, 2, 4)
        assert g.is_valley_free(route.as_path)

    def test_customer_preference_beats_shorter_provider_path(self):
        # 10 provides for 11; 11 provides for 12.  10 also peers with 12's
        # other provider 13.  11's route to 12 must use the customer edge
        # even if an alternative existed.
        g = ASGraph()
        g.add_provider_customer(10, 11)
        g.add_provider_customer(11, 12)
        g.add_provider_customer(13, 12)
        g.add_peer(10, 13)
        router = PolicyRouter(g)
        route = router.route(11, 12)
        assert route.route_class is RouteClass.CUSTOMER
        assert route.as_path == (11, 12)

    def test_no_export_of_peer_routes_to_peers(self):
        # 1-peer-2, 2-peer-3 only: 1 must NOT reach 3 through 2 because 2
        # does not export a peer-learned route to its peer.
        g = ASGraph()
        g.add_peer(1, 2)
        g.add_peer(2, 3)
        router = PolicyRouter(g)
        assert router.route(1, 3) is None

    def test_customer_routes_exported_to_peers(self):
        g = ASGraph()
        g.add_peer(1, 2)
        g.add_provider_customer(2, 3)
        router = PolicyRouter(g)
        route = router.route(1, 3)
        assert route is not None
        assert route.as_path == (1, 2, 3)

    def test_unknown_as_raises(self):
        router = PolicyRouter(diamond())
        with pytest.raises(TopologyError):
            router.route(99, 5)

    def test_unreachable_returns_none(self):
        g = diamond()
        g.add_as(42)
        router = PolicyRouter(g)
        assert router.route(42, 5) is None
        assert router.route(5, 42) is None

    def test_cache_hit_returns_same_tree(self):
        router = PolicyRouter(diamond(), cache_size=2)
        t1 = router.tree(5)
        t2 = router.tree(5)
        assert t1 is t2

    def test_cache_eviction(self):
        router = PolicyRouter(diamond(), cache_size=1)
        t1 = router.tree(5)
        router.tree(4)
        t3 = router.tree(5)
        assert t1 is not t3
        assert np.array_equal(t1.next_hop, t3.next_hop)
        assert np.array_equal(t1.distance, t3.distance)
        assert np.array_equal(t1.route_class, t3.route_class)
        assert [t3.path_from(a) for a in (1, 2, 3, 4, 5)] == [
            (1, 3, 5), (2, 4, 5), (3, 5), (4, 5), (5,)
        ]

    def test_trees_rejects_unknown_destination_before_building(self):
        router = PolicyRouter(diamond())
        with obs.observe() as run:
            with pytest.raises(TopologyError, match="unknown destination AS 99"):
                router.trees([5, 99])
            with pytest.raises(TopologyError, match="unknown destination AS 99"):
                router.tree(99)
        assert counter_value(run.registry, "routing.tree_batches") == 0

    def test_isolated_as_reaches_only_itself(self):
        g = diamond()
        g.add_as(42)
        tree = PolicyRouter(g).tree(42)
        assert [a for a in g.ases() if tree.path_from(a) is not None] == [42]
        assert tree.path_from(42) == (42,)
        assert tree.route_from(42).route_class is RouteClass.ORIGIN
        assert tree.route_class[tree.index_of[1]] == UNROUTED

    def test_trees_are_lazy_batches_that_skip_the_cache(self, monkeypatch):
        g = diamond()
        monkeypatch.setattr(routing, "CELLS", 2 * len(g))  # two trees a sweep
        router = PolicyRouter(g)
        with obs.observe() as run:
            count = functools.partial(counter_value, run.registry)
            trees = router.trees([5, 4, 3, 2, 1])
            assert count("routing.tree_batches") == 0
            assert next(trees).destination == 5
            assert count("routing.tree_batches") == 1
            assert [t.destination for t in trees] == [4, 3, 2, 1]
            assert (count("routing.tree_batches"), count("routing.trees")) == (3, 5)
            assert router.tree(5).destination == 5  # trees() cached nothing
            assert router.tree(5) is router.tree(5)
            assert (count("routing.tree_batches"), count("routing.trees")) == (4, 6)

    def test_customer_tie_goes_to_the_earliest_queued_neighbour(self):
        # 20 hears of 1 from its customers 10 and 5 at the same length.
        # 10 joined the BFS queue first (behind 3, the lower-ASN provider
        # of 1), so 20 forwards to 10 — not to the lower ASN 5.
        g = ASGraph()
        for provider, customer in [(3, 1), (4, 1), (10, 3), (5, 4), (20, 10), (20, 5)]:
            g.add_provider_customer(provider, customer)
        tree = PolicyRouter(g).tree(1)
        assert tree.path_from(20) == (20, 10, 3, 1)
        assert_tree_matches_dict(tree, dict_routing_tree(g, 1))

    def test_peer_and_provider_ties_go_to_the_lowest_asn(self):
        g = ASGraph()
        for provider, customer in [(7, 1), (6, 1), (7, 9), (6, 9)]:
            g.add_provider_customer(provider, customer)
        g.add_peer(8, 7)
        g.add_peer(8, 6)
        tree = PolicyRouter(g).tree(1)
        assert tree.path_from(8) == (8, 6, 1)   # peer route: min (length, ASN)
        assert tree.path_from(9) == (9, 6, 1)   # provider route: same
        assert_tree_matches_dict(tree, dict_routing_tree(g, 1))

    def test_sibling_transit(self):
        # 1 provides for 2; 2 sibling 3: 1 should reach 3 through 2.
        g = ASGraph()
        g.add_provider_customer(1, 2)
        g.add_sibling(2, 3)
        router = PolicyRouter(g)
        route = router.route(1, 3)
        assert route is not None
        assert route.as_path == (1, 2, 3)


class TestPolicyRoutesOnGeneratedTopologies:
    @given(st.integers(min_value=0, max_value=12))
    @settings(max_examples=12, deadline=None)
    def test_all_selected_paths_are_valley_free(self, seed):
        topo = generate_topology(
            TopologyConfig(tier1_count=3, tier2_count=8, tier3_count=25, seed=seed)
        )
        router = PolicyRouter(topo.graph)
        ases = topo.graph.ases()
        # Sample destinations; every selected route must be valley-free
        # and terminate at the destination.
        for dst in ases[:: max(1, len(ases) // 6)]:
            tree = router.tree(dst)
            for src in ases[:: max(1, len(ases) // 10)]:
                path = tree.path_from(src)
                if path is None:
                    continue
                assert path[0] == src and path[-1] == dst
                assert len(set(path)) == len(path), "selected path has a loop"
                assert topo.graph.is_valley_free(path)

    @given(st.integers(min_value=0, max_value=12))
    @settings(max_examples=8, deadline=None)
    def test_stub_pairs_are_reachable(self, seed):
        # With every non-tier-1 AS having a provider, any two stubs can
        # reach each other via the core.
        topo = generate_topology(
            TopologyConfig(tier1_count=3, tier2_count=8, tier3_count=25, seed=seed)
        )
        router = PolicyRouter(topo.graph)
        stubs = topo.stub_ases()[:8]
        for i, a in enumerate(stubs):
            for b in stubs[i + 1:]:
                assert router.route(a, b) is not None

    def test_route_distance_matches_path_length(self):
        topo = generate_topology(
            TopologyConfig(tier1_count=3, tier2_count=8, tier3_count=25, seed=5)
        )
        router = PolicyRouter(topo.graph)
        stubs = topo.stub_ases()
        dst = stubs[0]
        tree = router.tree(dst)
        for src in stubs[1:10]:
            path = tree.path_from(src)
            assert path is not None
            assert len(path) - 1 == tree.distance[tree.index_of[src]]


    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_tree_equals_the_dict_builder(self, seed):
        # The truth graph and a failed-AS-pruned copy (what the latency
        # model routes over), every destination, one batch.
        topo = generate_topology(
            TopologyConfig(tier1_count=3, tier2_count=8, tier3_count=25, seed=seed)
        )
        for g in (topo.graph, topo.graph.without(topo.transit_ases()[1:2])):
            for tree in PolicyRouter(g).trees(g.ases()):
                assert_tree_matches_dict(tree, dict_routing_tree(g, tree.destination))


# -- array trees ≡ the dict oracle, on random annotated graphs ------------------


@st.composite
def annotated_graphs(draw):
    """Random annotated graphs: ASNs are a drawn permutation (so queue
    order and ASN order disagree), a p2c edge always points down the
    drawn rank (no provider cycles), and the edge list is sparse enough
    that isolated ASes, several components, multi-homed customers,
    lateral peers and siblings of stubs all occur."""
    count = draw(st.integers(2, 14))
    asns = draw(st.permutations(range(1, count + 1)))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, count - 1),
                st.integers(0, count - 1),
                st.sampled_from(["p2c", "p2c", "p2c", "peer", "sibling"]),
            ),
            max_size=3 * count,
        )
    )
    g = ASGraph()
    for asn in asns:
        g.add_as(asn)
    for a, b, kind in edges:
        if a == b or g.relationship(asns[a], asns[b]) is not None:
            continue
        upper, lower = asns[min(a, b)], asns[max(a, b)]
        if kind == "p2c":
            g.add_provider_customer(upper, lower)
        elif kind == "peer":
            g.add_peer(upper, lower)
        else:
            g.add_sibling(upper, lower)
    return g


def assert_trees_equal(a, b):
    assert a.destination == b.destination
    assert np.array_equal(a.next_hop, b.next_hop)
    assert np.array_equal(a.distance, b.distance)
    assert np.array_equal(a.route_class, b.route_class)


class TestArrayTreesMatchTheDictOracle:
    @given(annotated_graphs())
    @settings(max_examples=60, deadline=None)
    def test_csr_rows_are_the_sorted_neighbour_sets(self, g):
        csr = GraphCSR.from_asgraph(g)
        tables = {
            "providers": g.providers,
            "customers": g.customers,
            "peers": g.peers,
            "siblings": g.siblings,
            "uphill": lambda asn: g.providers(asn) | g.siblings(asn),
            "neighbors": g.neighbors,
        }
        for name, members in tables.items():
            indptr = getattr(csr, f"{name}_indptr")
            indices = getattr(csr, f"{name}_indices")
            assert indptr.dtype == indices.dtype == np.int64
            for asn, row in csr.index_of.items():
                assert csr.as_ids[indices[indptr[row] : indptr[row + 1]]].tolist() == sorted(
                    members(asn)
                )

    @given(annotated_graphs())
    @settings(max_examples=150, deadline=None)
    def test_every_tree_equals_the_dict_builder(self, g):
        router = PolicyRouter(g)
        for destination in g.ases():
            assert_tree_matches_dict(
                router.tree(destination), dict_routing_tree(g, destination)
            )

    @given(annotated_graphs(), st.integers(1, 5))
    @settings(max_examples=60, deadline=None)
    def test_batch_partition_independence(self, g, cells_per_as):
        ases = g.ases()
        reference = {d: PolicyRouter(g).tree(d) for d in ases}

        def check(trees, order):
            trees = list(trees)
            assert [t.destination for t in trees] == list(order)
            for tree in trees:
                assert_trees_equal(tree, reference[tree.destination])

        router = PolicyRouter(g)
        check(router.trees(ases), ases)
        check(router.trees(reversed(ases)), ases[::-1])
        for size in (1, 3):
            for start in range(0, len(ases), size):
                check(router.trees(ases[start : start + size]), ases[start : start + size])
        # ... and whatever the router's own batch size is.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(routing, "CELLS", cells_per_as * len(ases))
            check(router.trees(ases + ases[:1]), ases + ases[:1])

    @given(annotated_graphs())
    @settings(max_examples=100, deadline=None)
    def test_array_output_invariants(self, g):
        """Read off the arrays alone (no oracle): chains, valley-freeness
        and Gao-Rexford preference — class first, then length."""
        router = PolicyRouter(g)
        ases = g.ases()
        for tree in router.trees(ases):
            index_of, dist, cls = tree.index_of, tree.distance, tree.route_class
            assert dist[index_of[tree.destination]] == 0
            assert cls[index_of[tree.destination]] == RouteClass.ORIGIN
            exportable = (RouteClass.ORIGIN, RouteClass.CUSTOMER)

            def offers(neighbours, classes=None):
                """Path lengths ``asn`` would get through ``neighbours``."""
                return [
                    int(dist[index_of[n]]) + 1
                    for n in neighbours
                    if dist[index_of[n]] >= 0 and (classes is None or cls[index_of[n]] in classes)
                ]

            for asn in ases:
                i = index_of[asn]
                # The next-hop chain reaches the destination in exactly
                # ``distance`` steps, one hop closer each step.
                node, steps = i, 0
                while tree.next_hop[node] >= 0:
                    assert dist[tree.next_hop[node]] == dist[node] - 1
                    node, steps = tree.next_hop[node], steps + 1
                if dist[i] >= 0:
                    assert tree.as_ids[node] == tree.destination and steps == dist[i]
                    assert g.is_valley_free(tree.path_from(asn))
                else:
                    assert tree.next_hop[i] == -1 and cls[i] == UNROUTED
                    assert tree.path_from(asn) is None
                if asn == tree.destination:
                    continue
                # Best class on offer wins; within it, the shortest path.
                customer = offers(g.customers(asn) | g.siblings(asn), exportable)
                peer = offers(g.peers(asn), exportable)
                provider = offers(g.providers(asn))
                if customer:
                    expected = (RouteClass.CUSTOMER, min(customer))
                elif peer:
                    expected = (RouteClass.PEER, min(peer))
                elif provider:
                    expected = (RouteClass.PROVIDER, min(provider))
                else:
                    expected = (UNROUTED, -1)
                assert (cls[i], dist[i]) == expected
