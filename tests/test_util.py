"""Tests for the rng and stats utilities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util import (
    cdf_points,
    derive_rng,
    percentile,
    summarize,
)
from repro.util.stats import fraction_above


class TestDeriveRng:
    def test_same_seed_same_stream(self):
        a = derive_rng(42, "x").integers(0, 10**9, 5)
        b = derive_rng(42, "x").integers(0, 10**9, 5)
        assert np.array_equal(a, b)

    def test_labels_namespace_streams(self):
        a = derive_rng(42, "topology").integers(0, 10**9, 5)
        b = derive_rng(42, "workload").integers(0, 10**9, 5)
        assert not np.array_equal(a, b)

    def test_multiple_labels(self):
        a = derive_rng(1, "a", "b").integers(0, 10**9, 3)
        b = derive_rng(1, "a", "c").integers(0, 10**9, 3)
        assert not np.array_equal(a, b)

    def test_generator_seed_draws_child(self):
        parent = np.random.default_rng(7)
        child = derive_rng(parent, "x")
        assert isinstance(child, np.random.Generator)

    def test_none_seed_nondeterministic_type(self):
        assert isinstance(derive_rng(None), np.random.Generator)


class TestStats:
    def test_summarize_fields(self):
        summary = summarize([1.0, 2.0, 3.0, 4.0])
        assert summary.count == 4
        assert summary.minimum == 1.0
        assert summary.maximum == 4.0
        assert summary.mean == pytest.approx(2.5)
        assert summary.median == pytest.approx(2.5)
        assert "n=" in summary.row()

    def test_summarize_empty_raises(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_percentile(self):
        assert percentile(range(101), 90) == pytest.approx(90.0)
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_cdf_points_shape(self):
        points = cdf_points([3.0, 1.0, 2.0])
        assert points == [(1.0, 1 / 3), (2.0, 2 / 3), (3.0, 1.0)]

    def test_cdf_points_empty(self):
        assert cdf_points([]) == []

    def test_fractions(self):
        samples = [1.0, 2.0, 3.0, 4.0]
        assert fraction_above(samples, 2.5) == 0.5
        assert fraction_above([], 1.0) == 0.0

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=50))
    @settings(max_examples=100, deadline=None)
    def test_cdf_monotone_and_bounded(self, samples):
        points = cdf_points(samples)
        ps = [p for _, p in points]
        vs = [v for v, _ in points]
        assert ps == sorted(ps)
        assert vs == sorted(vs)
        assert ps[-1] == pytest.approx(1.0)

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=50))
    @settings(max_examples=100, deadline=None)
    def test_summary_ordering(self, samples):
        s = summarize(samples)
        assert s.minimum <= s.p25 <= s.median <= s.p75 <= s.p90 <= s.p99 <= s.maximum


class TestGoldenDeterminism:
    """Regression guard: the tiny world's key numbers must never drift
    silently.  If a substrate change moves them, update these constants
    deliberately (and re-check EXPERIMENTS.md)."""

    def test_tiny_world_fingerprint(self):
        from repro.scenario import tiny_scenario

        scenario = tiny_scenario(seed=11)
        matrices = scenario.matrices
        assert len(scenario.population) == 300
        assert matrices.count == 46
        finite = matrices.rtt_ms[np.isfinite(matrices.rtt_ms)]
        assert np.median(finite) == pytest.approx(124.563, abs=0.5)
        assert float((finite > 300).mean()) == pytest.approx(0.0789, abs=0.005)

    def test_tiny_world_asap_fingerprint(self):
        from repro.core import ASAPConfig, ASAPSystem
        from repro.core.config import derive_k_hops
        from repro.evaluation import generate_workload

        scenario = tiny_scenario = __import__("repro.scenario", fromlist=["tiny_scenario"]).tiny_scenario(seed=11)
        system = ASAPSystem(scenario, ASAPConfig(k_hops=derive_k_hops(scenario.matrices)))
        workload = generate_workload(scenario, 300, seed=1, latent_target=5)
        latent = workload.latent()[:5]
        results = [system.call(s.caller, s.callee) for s in latent]
        fingerprint = [(r.quality_paths, r.messages) for r in results]
        again = [
            (r.quality_paths, r.messages)
            for r in (
                ASAPSystem(scenario, ASAPConfig(k_hops=derive_k_hops(scenario.matrices))).call(s.caller, s.callee)
                for s in latent
            )
        ]
        assert fingerprint == again
