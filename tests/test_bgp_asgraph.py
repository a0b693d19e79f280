"""Unit tests for the annotated AS graph and valley-free search."""

import pytest

from repro.errors import TopologyError
from repro.bgp import ASGraph, Relationship
from tests.oracles import valley_free_ball


def diamond():
    """1 and 2 are tier-1 peers; 3 and 4 are customers; 5 is multihomed."""
    g = ASGraph()
    g.add_peer(1, 2)
    g.add_provider_customer(1, 3)
    g.add_provider_customer(2, 4)
    g.add_provider_customer(3, 5)
    g.add_provider_customer(4, 5)
    return g


class TestConstruction:
    def test_add_as_idempotent(self):
        g = ASGraph()
        g.add_as(1)
        g.add_as(1)
        assert len(g) == 1

    def test_positive_asn_required(self):
        g = ASGraph()
        with pytest.raises(TopologyError):
            g.add_as(0)

    def test_self_edges_rejected(self):
        g = ASGraph()
        for adder in (g.add_peer, g.add_sibling):
            with pytest.raises(TopologyError):
                adder(1, 1)
        with pytest.raises(TopologyError):
            g.add_provider_customer(2, 2)

    def test_double_annotation_rejected(self):
        g = ASGraph()
        g.add_provider_customer(1, 2)
        with pytest.raises(TopologyError):
            g.add_peer(1, 2)
        with pytest.raises(TopologyError):
            g.add_provider_customer(2, 1)

    def test_relationship_queries(self):
        g = diamond()
        assert g.relationship(1, 2) is Relationship.PEER_PEER
        assert g.relationship(1, 3) is Relationship.PROVIDER_CUSTOMER
        assert g.relationship(1, 4) is None
        assert g.is_provider_of(1, 3)
        assert not g.is_provider_of(3, 1)

    def test_sibling_relationship(self):
        g = ASGraph()
        g.add_sibling(7, 8)
        assert g.relationship(7, 8) is Relationship.SIBLING_SIBLING
        assert g.siblings(7) == {8}

    def test_degree_and_neighbors(self):
        g = diamond()
        assert g.neighbors(1) == {2, 3}
        assert g.degree(5) == 2

    def test_degree_is_the_neighbour_count_on_a_generated_topology(self):
        # ``degree`` sums the four relationship sets without building
        # their union: right only while an AS pair has one relationship.
        from repro.scenario import ScenarioConfig
        from repro.topology import generate_topology

        g = generate_topology(ScenarioConfig.preset("small", 0).topology).graph
        assert len(g) > 400 and any(g.siblings(a) for a in g.ases())
        for asn in g.ases():
            assert g.degree(asn) == len(g.neighbors(asn))
        assert g.degree(10**9) == 0  # unknown AS, as before

    def test_edge_count(self):
        assert diamond().edge_count() == 5

    def test_without_removes_node_and_edges(self):
        g = diamond().without([3])
        assert 3 not in g
        assert g.relationship(1, 3) is None
        assert g.providers(5) == {4}

    def test_without_preserves_annotations(self):
        g = diamond().without([])
        assert g.relationship(1, 2) is Relationship.PEER_PEER
        assert g.is_provider_of(1, 3)
        assert g.edge_count() == 5


class TestValleyFree:
    def test_ball_includes_start_at_zero(self):
        g = diamond()
        ball = valley_free_ball(g, 5, 0)
        assert ball == {5: 0}

    def test_ball_respects_hop_limit(self):
        g = diamond()
        ball = valley_free_ball(g, 5, 1)
        assert set(ball) == {5, 3, 4}

    def test_ball_full_reach(self):
        g = diamond()
        ball = valley_free_ball(g, 5, 4)
        assert set(ball) == {1, 2, 3, 4, 5}

    def test_ball_rejects_unknown_as(self):
        with pytest.raises(TopologyError):
            valley_free_ball(diamond(), 99, 2)

    def test_ball_rejects_negative_hops(self):
        with pytest.raises(TopologyError):
            valley_free_ball(diamond(), 5, -1)

    def test_no_valley_through_customer(self):
        # 3 and 4 both provide for 5; a path 3-5-4 would be a valley.
        g = diamond()
        ball = valley_free_ball(g, 3, 2)
        # From 3: up to 1 (peer 2 next), down to 5. 4 reachable only via
        # 3-1-2-4 (3 hops) or the valley 3-5-4 (forbidden).
        assert 4 not in ball
        ball3 = valley_free_ball(g, 3, 3)
        assert ball3[4] == 3

    def test_distance_symmetric_cases(self):
        g = diamond()
        assert g.valley_free_distance(5, 5) == 0
        assert g.valley_free_distance(5, 3) == 1
        assert g.valley_free_distance(3, 4) == 3
        assert g.valley_free_distance(5, 1) == 2

    def test_distance_unreachable(self):
        g = diamond()
        g.add_as(42)
        assert g.valley_free_distance(5, 42) is None

    def test_distance_max_hops_cutoff(self):
        g = diamond()
        assert g.valley_free_distance(3, 4, max_hops=2) is None

    def test_peer_edge_only_once(self):
        # Chain: 10-peer-11-peer-12. A path using two peer edges invalid.
        g = ASGraph()
        g.add_peer(10, 11)
        g.add_peer(11, 12)
        assert g.valley_free_distance(10, 12) is None

    def test_sibling_keeps_phase(self):
        # 20 sibling 21; 21 customer of 22. 20 should climb via sibling.
        g = ASGraph()
        g.add_sibling(20, 21)
        g.add_provider_customer(22, 21)
        g.add_peer(22, 23)
        assert g.valley_free_distance(20, 23) == 3

    def test_is_valley_free_explicit_paths(self):
        g = diamond()
        assert g.is_valley_free([5, 3, 1, 2, 4])
        assert not g.is_valley_free([3, 5, 4])       # valley
        assert g.is_valley_free([5])                  # trivial
        assert g.is_valley_free([])                   # trivial
        assert not g.is_valley_free([5, 1])           # not an edge

    def test_is_valley_free_rejects_peer_after_down(self):
        g = ASGraph()
        g.add_provider_customer(1, 2)
        g.add_peer(2, 3)
        # 1 -> 2 is downhill, then peer edge: invalid.
        assert not g.is_valley_free([1, 2, 3])
        # Uphill after a peer edge is also invalid.
        assert not g.is_valley_free([3, 2, 1])
        # Uphill then peer then downhill is the canonical valid shape.
        assert g.is_valley_free([2, 1])
        assert g.is_valley_free([2, 3])
