"""Tests for alternative topology families and robustness studies."""

import numpy as np
import pytest

from repro.errors import TopologyError
from repro.evaluation.robustness import (
    family_study,
    headline_metrics,
    seed_study,
    summarize_across,
)
from repro.scenario import ScenarioConfig, build_scenario_from_topology
from repro.topology import PopulationConfig, TopologyConfig
from repro.topology import models
from repro.topology.models import generate_barabasi_albert, generate_waxman
from repro.topology.validation import validate_topology


class TestBarabasiAlbert:
    def test_structure_valid(self):
        topo = generate_barabasi_albert(as_count=120, seed=3)
        topo.validate()
        assert len(topo.graph) == 120

    def test_core_is_peered_and_transit_free(self, monkeypatch):
        monkeypatch.setattr(models, "CORE_SIZE", 5)
        topo = generate_barabasi_albert(as_count=120, seed=3)
        core = [a for a, t in topo.tier_of.items() if t == 1]
        assert len(core) == 5
        for asn in core:
            assert not topo.graph.providers(asn)

    def test_heavy_tail(self):
        topo = generate_barabasi_albert(as_count=300, seed=3)
        degrees = sorted((topo.graph.degree(a) for a in topo.graph.ases()), reverse=True)
        assert degrees[0] >= 5 * degrees[len(degrees) // 2]

    def test_policy_routing_works(self):
        topo = generate_barabasi_albert(as_count=120, seed=3)
        report = validate_topology(topo, sample_pairs=80, seed=3)
        assert report.valley_free_rate == 1.0
        assert report.reachable_rate > 0.95

    def test_deterministic(self):
        a = generate_barabasi_albert(as_count=100, seed=4)
        b = generate_barabasi_albert(as_count=100, seed=4)
        assert a.graph.edge_count() == b.graph.edge_count()
        assert a.geography.coords == b.geography.coords

    def test_rejects_tiny(self):
        with pytest.raises(TopologyError):
            generate_barabasi_albert(as_count=5)


class TestWaxman:
    def test_structure_valid(self):
        topo = generate_waxman(as_count=120, seed=3)
        topo.validate()
        assert len(topo.graph) == 120

    def test_connected_and_routable(self):
        topo = generate_waxman(as_count=120, seed=3)
        report = validate_topology(topo, sample_pairs=80, seed=3)
        assert report.reachable_rate > 0.95
        assert report.valley_free_rate == 1.0

    def test_edges_prefer_short_distances(self):
        topo = generate_waxman(as_count=200, seed=5)
        geo = topo.geography
        edge_dists = []
        ases = topo.graph.ases()
        for a in ases:
            for b in topo.graph.neighbors(a):
                if a < b:
                    edge_dists.append(geo.distance_km(a, b))
        rng = np.random.default_rng(1)
        random_dists = [
            geo.distance_km(int(rng.choice(ases)), int(rng.choice(ases)))
            for _ in range(300)
        ]
        assert np.median(edge_dists) < np.median(random_dists)

    def test_deterministic(self):
        a = generate_waxman(as_count=100, seed=4)
        b = generate_waxman(as_count=100, seed=4)
        assert a.graph.edge_count() == b.graph.edge_count()


class TestPipelineOnAlternativeFamilies:
    @pytest.mark.parametrize("factory", [generate_barabasi_albert, generate_waxman])
    def test_full_scenario_builds(self, factory):
        topo = factory(as_count=120, seed=2)
        config = ScenarioConfig(
            population=PopulationConfig(host_count=500, seed=2)
        ).with_seed(2)
        scenario = build_scenario_from_topology(topo, config)
        matrices = scenario.matrices
        assert matrices.count > 10
        assert np.isfinite(matrices.rtt_ms).mean() > 0.8


class TestRobustnessStudies:
    SMALL = ScenarioConfig(
        topology=TopologyConfig(tier1_count=3, tier2_count=10, tier3_count=50),
        population=PopulationConfig(host_count=500),
    )

    def test_headline_metrics_fields(self):
        from repro.scenario import build_scenario

        scenario = build_scenario(self.SMALL.with_seed(11))
        metrics = headline_metrics(
            scenario, "t", session_count=400, latent_target=8, seed=11
        )
        assert 0.0 <= metrics.latent_fraction <= 1.0
        assert 0.0 <= metrics.asap_rescue_rate <= 1.0
        assert metrics.asap_over_best_baseline > 0
        assert "latent=" in metrics.row()

    def test_seed_study_multiple_seeds(self):
        results = seed_study(
            self.SMALL, seeds=(11, 12), session_count=400, latent_target=6
        )
        assert len(results) == 2
        assert results[0].label != results[1].label
        rows = summarize_across(results)
        assert any("±" in value for _, value in rows)

    def test_family_study_runs_all_families(self):
        results = family_study(
            self.SMALL, as_count=100, session_count=400, latent_target=6, seed=11
        )
        labels = [m.label for m in results]
        assert labels == ["tiered", "barabasi-albert", "waxman"]
