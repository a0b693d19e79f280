"""Tests for substrate validation, limit detection, and maintenance."""

import numpy as np
import pytest

from repro.core import ASAPConfig, ASAPSystem
from repro.evaluation.maintenance import (
    reweather,
    run_maintenance_study,
    staleness,
)
from repro.evaluation.sessions import generate_workload
from repro.measurement.tools import KingEstimator
from repro.skype import SkypeConfig, SupernodeOverlay, TraceAnalyzer, run_skype_session
from repro.skype.limits import LimitThresholds, detect_limits
from repro.topology import TopologyConfig, generate_topology
from repro.topology.validation import validate_latency, validate_topology
from tests.oracles import tiny_scenario


@pytest.fixture(scope="module")
def scenario():
    return tiny_scenario(seed=11)


class TestTopologyValidation:
    def test_report_on_generated_topology(self):
        topo = generate_topology(
            TopologyConfig(tier1_count=4, tier2_count=15, tier3_count=60, seed=1)
        )
        report = validate_topology(topo, sample_pairs=150, seed=1)
        assert report.as_count == len(topo.graph)
        assert report.valley_free_rate == 1.0
        assert report.reachable_rate > 0.9
        assert report.degree_tail_ratio > 2.0
        assert 2.0 <= report.mean_policy_path_hops <= 7.0
        assert 0.0 < report.multihomed_stub_fraction < 1.0

    def test_rows_render(self):
        topo = generate_topology(
            TopologyConfig(tier1_count=3, tier2_count=8, tier3_count=25, seed=2)
        )
        rows = validate_topology(topo, sample_pairs=50, seed=2).rows()
        assert any("valley-free" in key for key, _ in rows)

    def test_latency_realism(self, scenario):
        report = validate_latency(scenario, sample_pairs=150, seed=1)
        assert report.hop_latency_correlation > 0.1
        assert report.median_rtt_ms > 0
        assert 0.0 <= report.latent_fraction_300ms <= 1.0
        assert 0.0 <= report.policy_detour_fraction <= 1.0

    def test_tiny_topology_rejected(self):
        from repro.errors import TopologyError
        from repro.topology.generator import Topology
        from repro.topology.geography import Geography
        from repro.bgp.asgraph import ASGraph

        empty = Topology(
            config=TopologyConfig(), graph=ASGraph(), geography=Geography(), tier_of={}
        )
        with pytest.raises(TopologyError):
            validate_topology(empty)


class TestLimitDetection:
    @pytest.fixture(scope="class")
    def study(self, scenario):
        overlay = SupernodeOverlay(scenario.population)
        analyzer = TraceAnalyzer(
            scenario.prefix_table,
            king=KingEstimator(scenario.latency, seed=1, non_response_rate=0.0),
            population=scenario.population,
        )
        m = scenario.matrices
        clusters = scenario.clusters.all_clusters()
        pairs = np.argwhere(np.isfinite(m.rtt_ms) & (m.rtt_ms > 250))
        sessions, analyses = [], []
        for sid, (a, b) in enumerate(pairs[:6], start=1):
            ca, cb = clusters[int(a)], clusters[int(b)]
            if not ca.hosts or not cb.hosts:
                continue
            result = run_skype_session(
                scenario, ca.hosts[0].ip, cb.hosts[0].ip, overlay, session_id=sid
            )
            sessions.append(result)
            analyses.append(analyzer.analyze(result.trace))
        return scenario, analyzer, sessions, analyses

    def test_detects_limits(self, study):
        scenario, analyzer, sessions, analyses = study
        report = detect_limits(
            analyses,
            sessions,
            analyzer,
            thresholds=LimitThresholds(heavy_probing_nodes=5, long_stabilization_ms=100.0),
        )
        # With low bounds, probing-heavy sessions must appear.
        assert report.limit4
        assert report.sessions_with_any_limit()
        rows = dict(report.summary_rows())
        assert rows["Limit 4 (heavy probing) sessions"] == len(report.limit4)

    def test_limit2_groups_are_multi_ip(self, study):
        scenario, analyzer, sessions, analyses = study
        report = detect_limits(analyses, sessions, analyzer)
        for groups in report.limit2.values():
            for ips in groups.values():
                assert len(ips) > 1

    def test_limit1_findings_consistent(self, study):
        scenario, analyzer, sessions, analyses = study
        report = detect_limits(analyses, sessions, analyzer)
        for finding in report.limit1:
            assert finding.major_path_rtt_ms > finding.best_probed_rtt_ms
            assert finding.wasted_ms > 0

    def test_without_king_skips_limit1(self, study):
        scenario, _, sessions, analyses = study
        report = detect_limits(analyses, sessions, TraceAnalyzer(scenario.prefix_table))
        assert report.limit1 == []


class TestMaintenance:
    def test_reweather_changes_conditions_only(self, scenario):
        fresh = reweather(scenario, seed=99)
        assert fresh.topology is scenario.topology
        assert fresh.population is scenario.population
        assert fresh.conditions is not scenario.conditions
        # Different weather → different congested links (almost surely).
        assert (
            sorted(fresh.conditions.link_penalty) != sorted(scenario.conditions.link_penalty)
            or fresh.conditions.failed_ases != scenario.conditions.failed_ases
        )

    def test_reweather_deterministic(self, scenario):
        a = reweather(scenario, seed=5)
        b = reweather(scenario, seed=5)
        assert sorted(a.conditions.link_penalty) == sorted(b.conditions.link_penalty)

    def test_staleness_report(self, scenario):
        system = ASAPSystem(scenario, ASAPConfig(k_hops=5))
        fresh = reweather(scenario, seed=7)
        report = staleness(system, fresh, cluster_index=0)
        assert report.entries == len(system.close_set(0))
        assert 0 <= report.violating <= report.entries
        assert report.missing >= 0
        assert 0.0 <= report.violation_rate <= 1.0

    def test_same_weather_not_stale(self, scenario):
        system = ASAPSystem(scenario, ASAPConfig(k_hops=5))
        report = staleness(system, scenario, cluster_index=0)
        assert report.violating == 0

    def test_maintenance_study(self, scenario):
        workload = generate_workload(scenario, 400, seed=3, latent_target=6)
        sessions = workload.latent()[:6]
        if len(sessions) < 3:
            pytest.skip("too few latent sessions in tiny world")
        outcomes, reports = run_maintenance_study(scenario, sessions, weather_seed=7)
        by_policy = {o.policy: o for o in outcomes}
        assert set(by_policy) == {"stale", "refreshed"}
        # Refreshed selection can only match or beat stale on realized
        # rescues (both evaluated under the same fresh weather).
        assert by_policy["refreshed"].rescued_fraction >= by_policy["stale"].rescued_fraction - 1e-9
        assert reports
