"""Tests for Gao-style AS relationship inference."""

import pytest

from repro.bgp import RoutingTable, infer_relationships
from repro.bgp.asgraph import Relationship
from repro.bgp.relationships import (
    collect_paths,
    inference_accuracy,
    path_degrees,
)
from repro.bgp.routing import PolicyRouter
from repro.netaddr import IPv4Address, IPv4Prefix
from repro.bgp.rib import RIBEntry
from repro.topology import TopologyConfig, allocate_prefixes, generate_rib_entries, generate_topology


def entry(path, prefix="192.0.2.0/24"):
    return RIBEntry(
        timestamp=1,
        peer=IPv4Address.from_string("10.0.0.1"),
        prefix=IPv4Prefix.from_string(prefix),
        as_path=tuple(path),
    )


class TestPathHelpers:
    def test_collect_paths_dedup_and_collapse(self):
        entries = [entry((1, 2, 2, 3)), entry((1, 2, 3)), entry((4, 5))]
        paths = collect_paths(entries)
        assert (1, 2, 3) in paths
        assert (4, 5) in paths
        assert len(paths) == 2

    def test_path_degrees(self):
        degrees = path_degrees([(1, 2, 3), (2, 4)])
        assert degrees == {1: 1, 2: 3, 3: 1, 4: 1}


class TestInferenceOnHandBuiltPaths:
    def test_uphill_downhill_classification(self):
        # 2 is the top provider (highest degree): 1 climbs to 2, 2
        # descends to 3.
        entries = [
            entry((1, 2, 3)),
            entry((1, 2, 4), prefix="198.51.100.0/24"),
            entry((5, 2, 3), prefix="203.0.113.0/24"),
        ]
        graph = infer_relationships(entries)
        assert graph.is_provider_of(2, 1)
        assert graph.is_provider_of(2, 3)
        assert graph.is_provider_of(2, 4)
        assert graph.is_provider_of(2, 5)

    def test_sibling_from_mutual_transit(self):
        # a and b transit for each other equally often → siblings.
        entries = [
            entry((1, 10, 20, 2)),
            entry((2, 20, 10, 1), prefix="198.51.100.0/24"),
            # pad degrees so 10 and 20 tie as top providers
            entry((10, 3), prefix="203.0.113.0/24"),
            entry((20, 4), prefix="203.0.114.0/24"),
            entry((10, 5), prefix="203.0.115.0/24"),
            entry((20, 6), prefix="203.0.116.0/24"),
        ]
        graph = infer_relationships(entries)
        assert graph.relationship(10, 20) is Relationship.SIBLING_SIBLING

    def test_peer_when_no_transit_evidence(self):
        # Single path 1-2: 2 is top provider by degree tie-break → the
        # edge gets a transit vote, so craft a two-node-tops case: path
        # (1, 2) where degrees are equal gives provider vote; instead
        # test the unvoted case via the top edge of two tops.
        entries = [
            entry((3, 1, 2, 4)),
            # raise both 1 and 2 to equal high degree
            entry((1, 5), prefix="198.51.100.0/24"),
            entry((2, 6), prefix="203.0.113.0/24"),
        ]
        graph = infer_relationships(entries)
        # 1-2 sits between the uphill and downhill segments; whichever
        # side is "top" the other adjacent edges are classified; the
        # 1-2 edge must exist with *some* annotation.
        assert graph.relationship(1, 2) is not None


class TestInferenceOnGeneratedWorld:
    @pytest.fixture(scope="class")
    def inferred(self):
        topo = generate_topology(
            TopologyConfig(tier1_count=4, tier2_count=15, tier3_count=60, seed=7)
        )
        allocation = allocate_prefixes(topo, seed=7)
        entries = generate_rib_entries(topo, allocation, vantage_count=8, seed=7)
        return topo, infer_relationships(entries)

    def test_most_edges_recovered(self, inferred):
        topo, graph = inferred
        # Paths only cover edges actually used by routing, so compare on
        # the edges present in the inferred graph.
        assert graph.edge_count() > 0.5 * topo.graph.edge_count()

    def test_direction_accuracy(self, inferred):
        topo, graph = inferred
        total, correct = 0, 0
        for a in graph.ases():
            for b in graph.neighbors(a):
                if a >= b or topo.graph.relationship(a, b) is None:
                    continue
                total += 1
                if (
                    topo.graph.relationship(a, b) == graph.relationship(a, b)
                    and topo.graph.is_provider_of(a, b) == graph.is_provider_of(a, b)
                ):
                    correct += 1
        assert total > 0
        assert correct / total > 0.75, f"accuracy {correct}/{total}"

    def test_inference_accuracy_helper(self, inferred):
        topo, graph = inferred
        score = inference_accuracy(topo.graph, graph)
        assert 0.0 <= score <= 1.0
        # Missing edges count against; still expect a majority match.
        assert score > 0.4

    def test_inferred_graph_supports_routing(self, inferred):
        _, graph = inferred
        router = PolicyRouter(graph)
        ases = graph.ases()
        reachable = sum(
            1 for a in ases[:10] for b in ases[-10:] if a != b and router.route(a, b)
        )
        assert reachable > 50  # most pairs routable on the inferred graph
