"""Tests for end-to-end scenario assembly and subsampling."""

import pickle

import numpy as np
import pytest

from repro import Scenario, ScenarioConfig, build_scenario
from repro.errors import ConfigurationError
from repro.scenario import subsample_scenario
from repro.topology import PopulationConfig, TopologyConfig
from tests.oracles import tiny_scenario


@pytest.fixture(scope="module")
def scenario():
    return tiny_scenario(seed=9)


class TestBuildScenario:
    def test_deterministic(self):
        a = tiny_scenario(seed=11)
        b = tiny_scenario(seed=11)
        assert [h.ip for h in a.population.hosts] == [h.ip for h in b.population.hosts]
        assert np.array_equal(a.matrices.rtt_ms, b.matrices.rtt_ms)

    def test_seed_changes_world(self):
        a = tiny_scenario(seed=11)
        b = tiny_scenario(seed=12)
        assert [h.ip for h in a.population.hosts] != [h.ip for h in b.population.hosts]

    def test_with_seed_propagates(self):
        config = ScenarioConfig().with_seed(42)
        assert config.seed == 42
        assert config.topology.seed == 42
        assert config.population.seed == 42
        assert config.conditions.seed == 42

    def test_prefix_table_built_from_parsed_rib(self, scenario):
        # Every populated prefix must be resolvable through the table.
        for cluster in scenario.clusters.all_clusters():
            assert scenario.prefix_table.origin_of(cluster.delegate.ip) == cluster.asn

    def test_inferred_graph_nonempty(self, scenario):
        assert len(scenario.inferred_graph) > 0
        assert scenario.inferred_graph.edge_count() > 0

    def test_protocol_graph_flag(self, scenario):
        assert scenario.protocol_graph is scenario.inferred_graph
        truth_cfg = ScenarioConfig(
            topology=TopologyConfig(tier1_count=3, tier2_count=10, tier3_count=40, seed=1),
            population=PopulationConfig(host_count=300, seed=1),
            use_inferred_graph=False,
        )
        truth_scenario = build_scenario(truth_cfg)
        assert truth_scenario.protocol_graph is truth_scenario.topology.graph

    def test_matrices_cached(self, scenario):
        assert scenario.matrices is scenario.matrices

    def test_routing_table_updates_applied(self, scenario):
        # The update stream re-announces churned prefixes; the table
        # must still cover every allocated prefix.
        announced = {prefix for _, prefix in scenario.routing_table.routes}
        for prefixes in scenario.allocation.prefixes_of.values():
            for prefix in prefixes:
                assert prefix in announced


class TestSubsample:
    def test_population_shrinks(self, scenario):
        small = subsample_scenario(scenario, 0.25, seed=1)
        assert len(small.population) == pytest.approx(0.25 * len(scenario.population), abs=2)

    def test_hosts_are_subset(self, scenario):
        small = subsample_scenario(scenario, 0.25, seed=1)
        original = {h.ip for h in scenario.population.hosts}
        assert {h.ip for h in small.population.hosts} <= original

    def test_topology_shared(self, scenario):
        small = subsample_scenario(scenario, 0.25, seed=1)
        assert small.topology is scenario.topology
        assert small.prefix_table is scenario.prefix_table
        assert small.conditions is scenario.conditions

    def test_clusters_rebuilt(self, scenario):
        small = subsample_scenario(scenario, 0.25, seed=1)
        assert len(small.clusters) <= len(scenario.clusters)
        for cluster in small.clusters.all_clusters():
            assert cluster.delegate is not None
            assert len(cluster) >= 1

    def test_matrix_consistency_on_shared_clusters(self, scenario):
        # AS-level structure unchanged → same-cluster-pair RTTs should
        # agree up to delegate access deltas (delegates may differ).
        small = subsample_scenario(scenario, 0.5, seed=1)
        shared = [p for p in small.matrices.prefixes if p in scenario.matrices.index_of]
        assert shared
        p, q = shared[0], shared[-1]
        i1, j1 = scenario.matrices.index_of[p], scenario.matrices.index_of[q]
        i2, j2 = small.matrices.index_of[p], small.matrices.index_of[q]
        big_val = scenario.matrices.rtt_ms[i1, j1]
        small_val = small.matrices.rtt_ms[i2, j2]
        if np.isfinite(big_val):
            assert abs(big_val - small_val) < 80.0  # access-delay slack

    @pytest.mark.parametrize(
        "scale, seed", [("huge", 0), ("tiny", float("nan")), ("tiny", -1), ("tiny", 1.5)]
    )
    def test_preset_rejects_bad_scale_and_seed(self, scale, seed):
        with pytest.raises(ConfigurationError, match=repr(scale) if scale == "huge" else "seed"):
            ScenarioConfig.preset(scale, seed)

    def test_invalid_fraction(self, scenario):
        with pytest.raises(ValueError):
            subsample_scenario(scenario, 0.0)
        with pytest.raises(ValueError):
            subsample_scenario(scenario, 1.5)

    def test_deterministic(self, scenario):
        a = subsample_scenario(scenario, 0.3, seed=2)
        b = subsample_scenario(scenario, 0.3, seed=2)
        assert [h.ip for h in a.population.hosts] == [h.ip for h in b.population.hosts]


class TestPickleIsHistoryFree:
    @pytest.mark.parametrize("scale", ["tiny", "small"])
    def test_section7_run_leaves_the_pickle_unchanged(self, scale):
        # The state ScenarioCache.save pickles: matrices materialized.
        # Electing surrogates memoizes capability scores, which must not
        # travel with the world.
        from repro.evaluation.section7 import run_section7

        world = build_scenario(ScenarioConfig.preset(scale, 0))
        world.matrices
        before = pickle.dumps(world)
        run_section7(world)
        assert pickle.dumps(world) == before

    def test_capability_memo_keeps_equality_and_hash(self, scenario):
        info = scenario.population.hosts[0].info
        fresh = pickle.loads(pickle.dumps(info))
        score = info.capability()
        assert "_capability" not in vars(pickle.loads(pickle.dumps(info)))
        assert fresh == info and hash(fresh) == hash(info)
        assert fresh.capability() == score
