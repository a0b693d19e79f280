"""Edge-case and failure-injection tests across module boundaries."""

import numpy as np
import pytest

from repro.core import ASAPConfig, ASAPSystem, relay_selection
from repro.core.runtime import ASAPRuntime
from repro.errors import EvaluationError, MeasurementError, TopologyError
from repro.measurement.matrix import compute_delegate_matrices
from repro.scenario import ScenarioConfig, build_scenario, tiny_scenario
from repro.topology import PopulationConfig, TopologyConfig
from repro.topology.clustering import ClusterIndex
from repro.worldarrays import closesets
from repro.evaluation.sessions import generate_workload
from tests.oracles import rtt_to


@pytest.fixture(scope="module")
def scenario():
    return tiny_scenario(seed=11)


class TestEmptyAndDegenerateInputs:
    def test_empty_cluster_index_rejected_by_matrix(self, scenario):
        with pytest.raises(MeasurementError):
            compute_delegate_matrices(scenario.latency, ClusterIndex())

    def test_call_between_same_cluster_hosts(self, scenario):
        system = ASAPSystem(scenario)
        cluster = max(scenario.clusters.all_clusters(), key=len)
        if len(cluster) < 2:
            pytest.skip("no multi-host cluster")
        a, b = cluster.hosts[0].ip, cluster.hosts[1].ip
        session = system.call(a, b)
        # Intra-cluster direct path is always fast: no relay needed.
        assert not session.relay_needed
        assert session.caller_cluster == session.callee_cluster

    def test_call_with_unknown_ip_raises(self, scenario):
        from repro.netaddr import IPv4Address

        system = ASAPSystem(scenario)
        with pytest.raises(TopologyError):
            system.call(IPv4Address.from_string("203.0.113.5"), scenario.population.hosts[0].ip)

    def test_workload_on_minimal_population(self):
        config = ScenarioConfig(
            topology=TopologyConfig(tier1_count=2, tier2_count=3, tier3_count=8, seed=3),
            population=PopulationConfig(host_count=6, seed=3),
        ).with_seed(3)
        scenario = build_scenario(config)
        workload = generate_workload(scenario, 10, seed=1)
        assert len(workload) == 10
        for session in workload.sessions:
            assert session.caller != session.callee


class TestFailureInjection:
    def test_heavy_failures_still_build(self):
        from repro.measurement.conditions import ConditionsConfig

        config = ScenarioConfig(
            topology=TopologyConfig(tier1_count=3, tier2_count=12, tier3_count=40, seed=5),
            population=PopulationConfig(host_count=300, seed=5),
            conditions=ConditionsConfig(failed_fraction=0.25, seed=5),
        )
        scenario = build_scenario(config)
        matrices = scenario.matrices
        # Heavy failures leave unreachable pairs, but the build survives
        # and the reachable core still routes.
        assert np.isfinite(matrices.rtt_ms).mean() > 0.2

    def test_workload_avoids_offline_hosts_under_failures(self):
        from repro.measurement.conditions import ConditionsConfig

        config = ScenarioConfig(
            topology=TopologyConfig(tier1_count=3, tier2_count=12, tier3_count=40, seed=5),
            population=PopulationConfig(host_count=300, seed=5),
            conditions=ConditionsConfig(failed_fraction=0.25, seed=5),
        )
        scenario = build_scenario(config)
        workload = generate_workload(scenario, 150, seed=2)
        matrices = scenario.matrices
        finite_fraction = np.mean(np.isfinite(matrices.rtt_ms), axis=1)
        for session in workload.sessions:
            assert finite_fraction[session.caller_cluster] >= 0.5
            assert finite_fraction[session.callee_cluster] >= 0.5

    def test_runtime_call_to_unreachable_callee_never_completes(self):
        from repro.measurement.conditions import ConditionsConfig

        config = ScenarioConfig(
            topology=TopologyConfig(tier1_count=3, tier2_count=12, tier3_count=40, seed=5),
            population=PopulationConfig(host_count=300, seed=5),
            conditions=ConditionsConfig(failed_fraction=0.25, seed=5),
        )
        scenario = build_scenario(config)
        matrices = scenario.matrices
        # Find a pair with no route at all.
        dead = np.argwhere(~np.isfinite(matrices.rtt_ms))
        pair = None
        clusters = scenario.clusters.all_clusters()
        for a, b in dead:
            if a != b and clusters[int(a)].hosts and clusters[int(b)].hosts:
                pair = (clusters[int(a)].hosts[0].ip, clusters[int(b)].hosts[0].ip)
                break
        if pair is None:
            pytest.skip("no unreachable pair under this seed")
        runtime = ASAPRuntime(scenario, ASAPConfig())
        record = runtime.schedule_call(*pair)
        runtime.run()
        assert record.setup_ms is None  # the ping never comes back


class TestConfigInteractions:
    def test_zero_relay_delay(self, scenario, monkeypatch):
        monkeypatch.setattr(relay_selection, "RELAY_DELAY_RTT_MS", 0.0)
        system = ASAPSystem(scenario, ASAPConfig(k_hops=5))
        workload = generate_workload(scenario, 200, seed=4, latent_target=3)
        latent = workload.latent()[:3]
        if not latent:
            pytest.skip("no latent sessions")
        for session in latent:
            call = system.call(session.caller, session.callee)
            if call.selection is not None:
                for cluster, relay_rtt_ms, _ in call.selection.one_hop.tolist():
                    # Without relay delay, the candidate RTT is just the
                    # two legs.
                    s1 = system.close_set(call.caller_cluster)
                    s2 = system.close_set(call.callee_cluster)
                    assert relay_rtt_ms == pytest.approx(
                        rtt_to(s1, cluster) + rtt_to(s2, cluster)
                    )

    def test_huge_k_saturates_at_reachability(self, scenario):
        small_k = ASAPSystem(scenario, ASAPConfig(k_hops=6))
        huge_k = ASAPSystem(scenario, ASAPConfig(k_hops=8))
        a = 0
        assert set(huge_k.close_set(a).entries) >= set(small_k.close_set(a).entries)

    def test_loss_threshold_zero_point_one_percent(self, scenario, monkeypatch):
        # An extremely tight loss threshold shrinks close sets.
        sizes = []
        for threshold in (1e-6, 0.5):
            monkeypatch.setattr(closesets, "LOSS_THRESHOLD", threshold)
            sizes.append(len(ASAPSystem(scenario, ASAPConfig(k_hops=4)).close_set(0)))
        assert sizes[0] <= sizes[1]
