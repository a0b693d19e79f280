"""Tests for the tiered AS topology generator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, TopologyError
from repro.bgp.asgraph import Relationship
from repro.topology import TopologyConfig, generate_topology


SMALL = TopologyConfig(tier1_count=4, tier2_count=12, tier3_count=40, seed=1)


class TestConfigValidation:
    def test_rejects_tiny_core(self):
        with pytest.raises(ConfigurationError):
            TopologyConfig(tier1_count=1)

    def test_rejects_bad_probability(self):
        with pytest.raises(ConfigurationError):
            TopologyConfig(multihoming_probability=1.5)

    def test_rejects_bad_sibling_fraction(self):
        with pytest.raises(ConfigurationError):
            TopologyConfig(sibling_fraction=-0.1)


class TestGeneratedStructure:
    def test_deterministic_by_seed(self):
        a = generate_topology(SMALL)
        b = generate_topology(SMALL)
        assert a.graph.ases() == b.graph.ases()
        assert a.graph.edge_count() == b.graph.edge_count()
        assert a.geography.coords == b.geography.coords

    def test_different_seeds_differ(self):
        a = generate_topology(SMALL)
        b = generate_topology(TopologyConfig(
            tier1_count=4, tier2_count=12, tier3_count=40, seed=2))
        assert a.geography.coords != b.geography.coords

    def test_tier1_full_peer_mesh(self):
        topo = generate_topology(SMALL)
        tier1 = [a for a, t in topo.tier_of.items() if t == 1]
        for i, a in enumerate(tier1):
            for b in tier1[i + 1:]:
                assert topo.graph.relationship(a, b) is Relationship.PEER_PEER

    def test_every_non_tier1_has_provider(self):
        topo = generate_topology(SMALL)
        for asn, tier in topo.tier_of.items():
            if tier != 1:
                assert topo.graph.providers(asn) or topo.graph.siblings(asn)

    def test_tier1_has_no_providers(self):
        topo = generate_topology(SMALL)
        for asn, tier in topo.tier_of.items():
            if tier == 1:
                assert not topo.graph.providers(asn)

    def test_stub_and_transit_partition(self):
        topo = generate_topology(SMALL)
        stubs = set(topo.stub_ases())
        transit = set(topo.transit_ases())
        assert stubs.isdisjoint(transit)
        assert stubs | transit == set(topo.tier_of)

    def test_multihomed_stubs_exist(self):
        topo = generate_topology(
            TopologyConfig(tier1_count=4, tier2_count=12, tier3_count=80,
                           multihoming_probability=0.8, seed=3)
        )
        g = topo.graph
        multihomed_stubs = [a for a in g.ases() if len(g.providers(a)) >= 2
                            and topo.tier_of[a] == 3]
        assert len(multihomed_stubs) > 10

    def test_all_ases_have_coordinates(self):
        topo = generate_topology(SMALL)
        for asn in topo.graph.ases():
            assert asn in topo.geography

    def test_validate_passes(self):
        generate_topology(SMALL).validate()  # must not raise

    def test_sibling_fraction_produces_siblings(self):
        topo = generate_topology(
            TopologyConfig(tier1_count=4, tier2_count=20, tier3_count=80,
                           sibling_fraction=0.1, seed=4)
        )
        sibling_edges = sum(len(topo.graph.siblings(a)) for a in topo.graph.ases())
        assert sibling_edges > 0

    @given(st.integers(min_value=0, max_value=20))
    @settings(max_examples=10, deadline=None)
    def test_heavy_tail_degree_distribution(self, seed):
        topo = generate_topology(
            TopologyConfig(tier1_count=4, tier2_count=20, tier3_count=100, seed=seed)
        )
        degrees = sorted((topo.graph.degree(a) for a in topo.graph.ases()), reverse=True)
        # Preferential attachment: the top AS should dominate the median.
        assert degrees[0] >= 5 * degrees[len(degrees) // 2]

    @given(st.integers(min_value=0, max_value=20))
    @settings(max_examples=6, deadline=None)
    def test_geography_regional_cones(self, seed):
        # A stub should be closer to its primary-ish providers than a
        # random AS is on average (regional transit purchasing).
        topo = generate_topology(
            TopologyConfig(tier1_count=4, tier2_count=20, tier3_count=60, seed=seed)
        )
        geo = topo.geography
        stubs = topo.stub_ases()[:20]
        provider_dists, random_dists = [], []
        all_ases = topo.graph.ases()
        for i, stub in enumerate(stubs):
            for p in topo.graph.providers(stub):
                provider_dists.append(geo.distance_km(stub, p))
            random_dists.append(geo.distance_km(stub, all_ases[(i * 7) % len(all_ases)]))
        assert sum(provider_dists) / len(provider_dists) < sum(random_dists) / len(random_dists) * 1.2
