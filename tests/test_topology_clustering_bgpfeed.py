"""Tests for prefix clustering and the synthetic BGP feed."""

import pytest

from repro.bgp import PrefixOriginTable, RoutingTable, parse_rib_dump, format_rib_dump
from repro.bgp.routing import PolicyRouter
from repro.errors import TopologyError
from repro.topology import (
    PopulationConfig,
    TopologyConfig,
    allocate_prefixes,
    build_clusters,
    generate_population,
    generate_rib_entries,
    generate_topology,
    generate_update_stream,
)
from repro.topology.bgpfeed import pick_vantage_ases
from tests.oracles import prefix_contains

SMALL = TopologyConfig(tier1_count=4, tier2_count=12, tier3_count=40, seed=1)
TINY = TopologyConfig(tier1_count=3, tier2_count=5, tier3_count=12, seed=2)


@pytest.fixture(scope="module")
def world():
    topo = generate_topology(SMALL)
    allocation = allocate_prefixes(topo, seed=1)
    entries = generate_rib_entries(topo, allocation, vantage_count=5, seed=1)
    table = RoutingTable.from_entries(entries)
    prefix_table = PrefixOriginTable.from_routing_table(table)
    population = generate_population(
        topo, allocation, PopulationConfig(host_count=400, seed=2)
    )
    return topo, allocation, entries, prefix_table, population


class TestBGPFeed:
    def test_vantages_are_transit(self, world):
        topo, *_ = world
        vantages = pick_vantage_ases(topo, 5, seed=1)
        assert len(vantages) == 5
        assert set(vantages) <= set(topo.transit_ases())

    def test_entries_origin_matches_allocation(self, world):
        topo, allocation, entries, *_ = world
        for entry in entries[:200]:
            assert entry.prefix in allocation.prefixes_of[entry.origin_as]

    def test_entries_paths_are_policy_paths(self, world):
        topo, allocation, entries, *_ = world
        router = PolicyRouter(topo.graph)
        for entry in entries[:100]:
            path = entry.as_path
            assert topo.graph.is_valley_free(path)
            assert router.as_path(path[0], path[-1]) == path

    def test_dump_round_trip(self, world):
        _, _, entries, *_ = world
        parsed = list(parse_rib_dump(format_rib_dump(entries).splitlines()))
        assert parsed == entries

    def test_update_stream_replay(self, world):
        topo, allocation, entries, *_ = world
        table = RoutingTable.from_entries(entries)
        updates = generate_update_stream(
            topo, allocation, churn_fraction=0.2, vantage_count=5, seed=1
        )
        assert updates, "expected churn at 20%"
        from repro.bgp import apply_updates
        before = len(table)
        apply_updates(table, updates)
        # Withdraw+re-announce pairs leave the table at the same size.
        assert len(table) == before

    @pytest.mark.parametrize("config", [TINY, SMALL], ids=["tiny", "small"])
    def test_feed_is_independent_of_the_router_cache(self, config):
        """The feed reads each origin's tree once, in sorted order, so
        its default router keeps a single tree; an explicit router of
        any cache size yields the same entries and updates."""
        topo = generate_topology(config)
        allocation = allocate_prefixes(topo, seed=1)
        kwargs = dict(vantage_count=5, seed=1)
        entries = generate_rib_entries(topo, allocation, **kwargs)
        updates = generate_update_stream(
            topo, allocation, churn_fraction=0.2, **kwargs
        )
        assert entries and updates
        for cache_size in (1, 4096):
            router = PolicyRouter(topo.graph, cache_size=cache_size)
            assert generate_rib_entries(topo, allocation, router=router, **kwargs) == entries
            assert generate_update_stream(
                topo, allocation, router=router, churn_fraction=0.2, **kwargs
            ) == updates

    def test_prefix_table_covers_population(self, world):
        _, _, _, prefix_table, population = world
        for host in population.hosts:
            match = prefix_table.lookup(host.ip)
            assert match is not None
            _, asn = match
            assert asn == host.asn


class TestClustering:
    def test_clusters_group_by_prefix(self, world):
        *_, prefix_table, population = world
        index = build_clusters(population, prefix_table, seed=3)
        for cluster in index.all_clusters():
            for host in cluster.hosts:
                assert prefix_contains(cluster.prefix, host.ip)

    def test_every_host_clustered(self, world):
        *_, prefix_table, population = world
        index = build_clusters(population, prefix_table, seed=3)
        clustered = sum(len(c) for c in index.all_clusters())
        assert clustered + len(index.unmatched) == len(population)
        assert not index.unmatched  # full BGP coverage in generated worlds

    def test_delegate_is_member(self, world):
        *_, prefix_table, population = world
        index = build_clusters(population, prefix_table, seed=3)
        for cluster in index.all_clusters():
            assert cluster.delegate in cluster.hosts

    def test_delegate_deterministic(self, world):
        *_, prefix_table, population = world
        a = build_clusters(population, prefix_table, seed=3)
        b = build_clusters(population, prefix_table, seed=3)
        for pa, pb in zip(a.all_clusters(), b.all_clusters()):
            assert pa.delegate.ip == pb.delegate.ip

    def test_cluster_of_lookup(self, world):
        *_, prefix_table, population = world
        index = build_clusters(population, prefix_table, seed=3)
        host = population.hosts[0]
        assert host.ip in index
        assert prefix_contains(index.cluster_of(host.ip).prefix, host.ip)

    def test_cluster_of_unknown_raises(self, world):
        *_, prefix_table, population = world
        index = build_clusters(population, prefix_table, seed=3)
        from repro.netaddr import IPv4Address
        with pytest.raises(TopologyError):
            index.cluster_of(IPv4Address.from_string("203.0.113.1"))

    def test_occupancy_distribution_sorted(self, world):
        *_, prefix_table, population = world
        index = build_clusters(population, prefix_table, seed=3)
        occ = index.occupancy_distribution()
        assert occ == sorted(occ, reverse=True)
        assert sum(occ) == len(population)
