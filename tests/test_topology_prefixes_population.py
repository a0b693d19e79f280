"""Tests for prefix allocation and peer population synthesis."""

import numpy as np
import pytest

from repro.errors import TopologyError
from repro.netaddr import IPv4Prefix
from repro.topology import (
    PopulationConfig,
    TopologyConfig,
    allocate_prefixes,
    generate_population,
    generate_topology,
)
from repro.topology.prefixes import PrefixAllocator
from tests.oracles import prefix_contains, prefix_contains_prefix

SMALL = TopologyConfig(tier1_count=4, tier2_count=12, tier3_count=40, seed=1)


class TestPrefixAllocator:
    def test_sequential_disjoint(self):
        alloc = PrefixAllocator(IPv4Prefix.from_string("10.0.0.0/8"))
        a = alloc.allocate(24)
        b = alloc.allocate(24)
        assert a != b
        assert not prefix_contains_prefix(a, b) and not prefix_contains_prefix(b, a)

    def test_alignment(self):
        alloc = PrefixAllocator(IPv4Prefix.from_string("10.0.0.0/8"))
        alloc.allocate(24)
        big = alloc.allocate(16)
        # /16 must be aligned on a /16 boundary.
        assert big.network % big.size() == 0

    def test_exhaustion(self):
        alloc = PrefixAllocator(IPv4Prefix.from_string("10.0.0.0/30"))
        alloc.allocate(31)
        alloc.allocate(31)
        with pytest.raises(TopologyError):
            alloc.allocate(31)

    def test_rejects_shorter_than_superblock(self):
        alloc = PrefixAllocator(IPv4Prefix.from_string("10.0.0.0/8"))
        with pytest.raises(TopologyError):
            alloc.allocate(4)


class TestAllocatePrefixes:
    def test_every_as_gets_prefixes(self):
        topo = generate_topology(SMALL)
        allocation = allocate_prefixes(topo, seed=1)
        for asn in topo.graph.ases():
            assert allocation.prefixes_of[asn], f"AS {asn} got no prefix"

    def test_all_prefixes_disjoint(self):
        topo = generate_topology(SMALL)
        allocation = allocate_prefixes(topo, seed=1)
        prefixes = sorted(p for ps in allocation.prefixes_of.values() for p in ps)
        for i, a in enumerate(prefixes):
            for b in prefixes[i + 1:]:
                assert not prefix_contains_prefix(a, b) and not prefix_contains_prefix(b, a)

    def test_deterministic(self):
        topo = generate_topology(SMALL)
        a = allocate_prefixes(topo, seed=1)
        b = allocate_prefixes(topo, seed=1)
        assert a.prefixes_of == b.prefixes_of


class TestGeneratePopulation:
    def _population(self, host_count=400, seed=2, **kwargs):
        topo = generate_topology(SMALL)
        allocation = allocate_prefixes(topo, seed=1)
        config = PopulationConfig(host_count=host_count, seed=seed, **kwargs)
        return topo, allocation, generate_population(topo, allocation, config)

    def test_hosts_live_in_their_prefix(self):
        _, allocation, pop = self._population()
        for host in pop.hosts:
            assert prefix_contains(host.prefix, host.ip)
            assert host.prefix in allocation.prefixes_of[host.asn]

    def test_all_hosts_in_stub_ases(self):
        topo, _, pop = self._population()
        stubs = set(topo.stub_ases())
        for host in pop.hosts:
            assert host.asn in stubs

    def test_no_duplicate_ips(self):
        _, _, pop = self._population()
        ips = [h.ip for h in pop.hosts]
        assert len(ips) == len(set(ips))

    def test_deterministic(self):
        _, _, a = self._population(seed=5)
        _, _, b = self._population(seed=5)
        assert [h.ip for h in a.hosts] == [h.ip for h in b.hosts]

    def test_by_ip_lookup(self):
        _, _, pop = self._population()
        host = pop.hosts[10]
        assert pop.by_ip(host.ip) is host
        assert host.ip in pop

    def test_by_ip_unknown_raises(self):
        _, _, pop = self._population()
        from repro.netaddr import IPv4Address
        with pytest.raises(TopologyError):
            pop.by_ip(IPv4Address.from_string("203.0.113.1"))

    def test_heavy_tail_occupancy(self):
        _, _, pop = self._population(host_count=1000, occupancy_skew=1.2)
        from collections import Counter
        counts = Counter(h.prefix for h in pop.hosts)
        sizes = sorted(counts.values(), reverse=True)
        assert sizes[0] > 5 * np.median(sizes)

    def test_network_address_never_assigned(self):
        _, _, pop = self._population()
        for host in pop.hosts:
            assert host.ip.value != host.prefix.network

    def test_access_delay_in_range(self):
        _, _, pop = self._population()
        lo, hi = PopulationConfig().access_delay_range_ms
        for host in pop.hosts:
            assert lo <= host.access_delay_ms <= hi

    def test_capability_score_positive(self):
        _, _, pop = self._population()
        for host in pop.hosts[:50]:
            assert host.info.capability() > 0


class TestCapabilityMemo:
    """``NodalInfo.capability()`` is computed once per record and the
    memo stays out of equality and hashing."""

    @staticmethod
    def formula(info):
        return (
            0.5 * np.log1p(info.bandwidth_kbps)
            + 0.3 * np.log1p(info.uptime_hours)
            + 0.2 * np.log1p(info.cpu_score)
        )

    def test_memo_equals_the_formula_and_election_is_unchanged(self):
        from repro.core import ASAPSystem
        from repro.scenario import small_scenario

        scenario = small_scenario(seed=0)
        system = ASAPSystem(scenario)
        for host in scenario.population.hosts:
            assert host.info.capability() == self.formula(host.info)
            assert host.info.__dict__["_capability"] == self.formula(host.info)
        per_surrogate = system.config.hosts_per_surrogate
        for cluster in scenario.clusters.all_clusters():
            count = max(1, -(-len(cluster.hosts) // per_surrogate))
            ranked = sorted(cluster.hosts, key=lambda h: (-self.formula(h.info), h.ip))
            group = system.surrogate_group(scenario.matrices.index_of[cluster.prefix])
            assert [member.host.ip for member in group] == [h.ip for h in ranked[:count]]

    def test_memo_is_invisible_to_equality_and_hash(self):
        import pickle

        from repro.topology.population import NodalInfo

        fresh = NodalInfo(bandwidth_kbps=800.0, uptime_hours=12.5, cpu_score=3.0)
        scored = NodalInfo(bandwidth_kbps=800.0, uptime_hours=12.5, cpu_score=3.0)
        scored.capability()
        assert "_capability" in vars(scored) and "_capability" not in vars(fresh)
        assert scored == fresh and hash(scored) == hash(fresh)
        # A record pickled before it was ever scored (every scenario-cache
        # entry) loads and scores lazily.
        loaded = pickle.loads(pickle.dumps(fresh))
        assert loaded == fresh and loaded.capability() == self.formula(fresh)


class TestHierarchicalAllocation:
    def _world(self, seed=1):
        from repro.topology.prefixes import allocate_prefixes_hierarchical

        topo = generate_topology(SMALL)
        return topo, allocate_prefixes_hierarchical(topo, seed=seed)

    def test_stub_prefixes_inside_provider_aggregate(self):
        topo, allocation = self._world()
        nested = 0
        for stub in topo.stub_ases():
            providers = sorted(topo.graph.providers(stub))
            if not providers:
                continue
            primary_blocks = allocation.prefixes_of.get(providers[0], [])
            for prefix in allocation.prefixes_of[stub]:
                if any(prefix_contains_prefix(block, prefix) for block in primary_blocks):
                    nested += 1
        assert nested > 10  # most stub space is provider-assigned

    def test_lpm_prefers_specific_over_aggregate(self):
        from repro.bgp import PrefixOriginTable, RoutingTable
        from repro.topology import generate_rib_entries

        topo, allocation = self._world()
        entries = generate_rib_entries(topo, allocation, vantage_count=4, seed=1)
        table = PrefixOriginTable.from_routing_table(RoutingTable.from_entries(entries))
        checked = 0
        for stub in topo.stub_ases()[:10]:
            for prefix in allocation.prefixes_of[stub]:
                ip = prefix.nth_address(1)
                assert table.origin_of(ip) == stub
                checked += 1
        assert checked > 0

    def test_stub_prefixes_mutually_disjoint(self):
        topo, allocation = self._world()
        stub_prefixes = [
            p for asn in topo.stub_ases() for p in allocation.prefixes_of[asn]
        ]
        for i, a in enumerate(stub_prefixes):
            for b in stub_prefixes[i + 1:]:
                assert not prefix_contains_prefix(a, b) and not prefix_contains_prefix(b, a)

    def test_deterministic(self):
        _, a = self._world(seed=4)
        _, b = self._world(seed=4)
        assert a.prefixes_of == b.prefixes_of

    def test_scenario_flag_builds(self):
        from dataclasses import replace

        from repro.scenario import ScenarioConfig, build_scenario
        from repro.topology import PopulationConfig

        cfg = replace(
            ScenarioConfig(
                topology=SMALL, population=PopulationConfig(host_count=200, seed=1)
            ).with_seed(1),
            hierarchical_prefixes=True,
        )
        scenario = build_scenario(cfg)
        assert len(scenario.clusters) > 0
        assert not scenario.clusters.unmatched
        for host in scenario.population.hosts[:20]:
            assert scenario.prefix_table.origin_of(host.ip) == host.asn
