"""Tests for the King estimator and delegate matrices."""

import numpy as np
import pytest

from repro.errors import MeasurementError
from repro.measurement import (
    KingEstimator,
    apply_king_noise,
    compute_delegate_matrices,
)
from tests.oracles import tiny_scenario


@pytest.fixture(scope="module")
def scenario():
    return tiny_scenario(seed=3)


@pytest.fixture(scope="module")
def matrices(scenario):
    return scenario.matrices


class TestKing:
    def test_non_response_deterministic_per_pair(self, scenario):
        king = KingEstimator(scenario.latency, seed=2, non_response_rate=0.5)
        a, b = scenario.population.hosts[0], scenario.population.hosts[1]
        results = {king.estimate(a, b) is None for _ in range(5)}
        assert len(results) == 1  # always responds or never responds

    def test_symmetric_pair_key(self, scenario):
        king = KingEstimator(scenario.latency, seed=2, non_response_rate=0.5)
        a, b = scenario.population.hosts[2], scenario.population.hosts[3]
        assert (king.estimate(a, b) is None) == (king.estimate(b, a) is None)

    def test_error_bounded(self, scenario):
        king = KingEstimator(scenario.latency, seed=2, error_sigma=0.05, non_response_rate=0.0)
        errors = []
        hosts = scenario.population.hosts
        for i in range(0, 40, 2):
            a, b = hosts[i], hosts[i + 1]
            truth = scenario.latency.host_rtt_ms(a, b)
            est = king.estimate(a, b)
            if truth and est:
                errors.append(abs(est - truth) / truth)
        assert np.median(errors) < 0.2

    def test_rejects_bad_params(self, scenario):
        with pytest.raises(MeasurementError):
            KingEstimator(scenario.latency, non_response_rate=1.0)
        with pytest.raises(MeasurementError):
            KingEstimator(scenario.latency, error_sigma=-0.1)


class TestDelegateMatrices:
    def test_shapes_consistent(self, matrices):
        n = matrices.count
        assert matrices.rtt_ms.shape == (n, n)
        assert matrices.loss.shape == (n, n)
        assert matrices.as_hops.shape == (n, n)
        assert matrices.sizes.shape == (n,)
        assert len(matrices.prefixes) == n

    def test_matrix_matches_direct_model(self, scenario, matrices):
        # Matrix entries must agree exactly with the latency model
        # applied to the delegates.
        clusters = scenario.clusters.all_clusters()
        model = scenario.latency
        for i in range(0, matrices.count, 7):
            for j in range(0, matrices.count, 11):
                if i == j:
                    continue
                truth = model.host_rtt_ms(clusters[i].delegate, clusters[j].delegate)
                got = matrices.rtt_ms[i, j]
                if truth is None:
                    assert not np.isfinite(got)
                else:
                    assert got == pytest.approx(truth, rel=1e-9)

    def test_hops_match_policy_paths(self, scenario, matrices):
        model = scenario.latency
        for i in range(0, matrices.count, 9):
            for j in range(0, matrices.count, 13):
                if i == j:
                    continue
                path = model.as_path(int(matrices.asn_of[i]), int(matrices.asn_of[j]))
                if path is None:
                    assert matrices.as_hops[i, j] == -1
                else:
                    assert matrices.as_hops[i, j] == len(path) - 1

    def test_diagonal_small(self, matrices):
        diag = np.diag(matrices.rtt_ms)
        assert np.all(np.isfinite(diag))
        assert np.all(diag < 100.0)

    def test_hop_latency_correlation(self, matrices):
        # Paper property (3): longer AS paths are likelier to be slower.
        finite = np.isfinite(matrices.rtt_ms) & (matrices.as_hops > 0)
        hops = matrices.as_hops[finite].astype(float)
        rtts = matrices.rtt_ms[finite]
        if len(set(hops)) < 2:
            pytest.skip("degenerate hop distribution")
        corr = np.corrcoef(hops, rtts)[0, 1]
        assert corr > 0.2

    def test_one_hop_rtt_helper(self, matrices):
        a, r, b = 0, 1, 2
        expected = matrices.rtt_ms[a, r] + matrices.rtt_ms[r, b] + 40.0
        assert matrices.one_hop_rtt(a, r, b) == pytest.approx(expected)

    def test_one_hop_path_loss(self, matrices):
        a, r, b = 0, 1, 2
        loss = matrices.one_hop_path_loss(a, r, b)
        assert 0.0 <= loss <= 1.0
        assert loss >= max(matrices.loss[a, r], matrices.loss[r, b]) - 1e-12


class TestKingNoiseMatrix:
    def test_noise_preserves_shape_and_diag(self, matrices):
        noisy = apply_king_noise(matrices, seed=1, non_response_rate=0.2)
        assert noisy.rtt_ms.shape == matrices.rtt_ms.shape
        assert np.allclose(np.diag(noisy.rtt_ms), np.diag(matrices.rtt_ms))

    def test_non_response_fraction(self, matrices):
        noisy = apply_king_noise(matrices, seed=1, non_response_rate=0.3)
        off_diag = ~np.eye(matrices.count, dtype=bool)
        was_finite = np.isfinite(matrices.rtt_ms) & off_diag
        now_inf = was_finite & ~np.isfinite(noisy.rtt_ms)
        frac = now_inf.sum() / max(was_finite.sum(), 1)
        assert 0.15 < frac < 0.45

    def test_non_response_symmetric(self, matrices):
        noisy = apply_king_noise(matrices, seed=1, non_response_rate=0.3)
        inf_mask = ~np.isfinite(noisy.rtt_ms)
        assert np.array_equal(inf_mask, inf_mask.T)

    def test_rejects_bad_rate(self, matrices):
        with pytest.raises(MeasurementError):
            apply_king_noise(matrices, non_response_rate=1.0)
