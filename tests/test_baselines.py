"""Tests for the DEDI / RAND / MIX / OPT baselines."""

import numpy as np
import pytest

from repro.baselines import (
    BaselineConfig,
    DEDIMethod,
    MIXMethod,
    OPTMethod,
    RANDMethod,
)
from repro.baselines.base import session_batch
from repro.errors import ConfigurationError
from repro.scenario import tiny_scenario


@pytest.fixture(scope="module")
def world():
    scenario = tiny_scenario(seed=6)
    return scenario, scenario.matrices, scenario.topology.graph


def a_session(matrices):
    finite = np.argwhere(np.isfinite(matrices.rtt_ms))
    for a, b in finite:
        if a != b:
            return int(a), int(b)
    raise AssertionError("no session")


class TestBaselineConfig:
    def test_rejects_negative_counts(self):
        with pytest.raises(ConfigurationError):
            BaselineConfig(dedicated_count=-1)

    def test_rejects_bad_threshold(self):
        with pytest.raises(ConfigurationError):
            BaselineConfig(lat_threshold_ms=0)

    @pytest.mark.parametrize("ids", [[5], [5, 6, 7]], ids=["short", "long"])
    def test_session_batch_rejects_mismatched_ids(self, ids):
        with pytest.raises(ConfigurationError, match="session_ids"):
            session_batch([(0, 1), (2, 3)], session_ids=ids)


class TestDEDI:
    def test_fleet_in_top_degree_clusters(self, world):
        _, matrices, graph = world
        config = BaselineConfig(dedicated_count=10)
        dedi = DEDIMethod(graph, config)
        fleet = dedi.fleet_for(matrices)
        assert len(fleet) == 10
        degrees = [graph.degree(int(matrices.asn_of[c])) for c in fleet]
        others = [
            graph.degree(int(matrices.asn_of[c]))
            for c in range(matrices.count)
            if c not in fleet
        ]
        assert min(degrees) >= max(others) - 1  # ranked placement

    def test_fixed_messages(self, world):
        _, matrices, graph = world
        dedi = DEDIMethod(graph, BaselineConfig(dedicated_count=10))
        a, b = a_session(matrices)
        result = dedi.evaluate_session(matrices, a, b)
        assert result.messages == 2 * result.probed_nodes
        assert result.probed_nodes <= 10

    def test_endpoints_excluded_from_fleet_probes(self, world):
        _, matrices, graph = world
        dedi = DEDIMethod(graph, BaselineConfig(dedicated_count=matrices.count))
        a, b = a_session(matrices)
        result = dedi.evaluate_session(matrices, a, b)
        assert result.probed_nodes == matrices.count - 2

    def test_quality_counts_threshold(self, world):
        _, matrices, graph = world
        dedi = DEDIMethod(graph, BaselineConfig(dedicated_count=20))
        a, b = a_session(matrices)
        result = dedi.evaluate_session(matrices, a, b)
        manual = 0
        for c in dedi.fleet_for(matrices):
            if c in (a, b):
                continue
            rtt = matrices.rtt_ms[a, c] + matrices.rtt_ms[c, b] + 40.0
            if np.isfinite(rtt) and rtt < 300.0:
                manual += 1
        assert result.quality_paths == manual


class TestRAND:
    def test_deterministic_per_session(self, world):
        _, matrices, _ = world
        rand = RANDMethod(BaselineConfig(random_probes=50))
        a, b = a_session(matrices)
        r1 = rand.evaluate_session(matrices, a, b, session_id=7)
        r2 = rand.evaluate_session(matrices, a, b, session_id=7)
        assert r1 == r2

    def test_different_sessions_differ(self, world):
        _, matrices, _ = world
        rand = RANDMethod(BaselineConfig(random_probes=50))
        a, b = a_session(matrices)
        r1 = rand.evaluate_session(matrices, a, b, session_id=1)
        r2 = rand.evaluate_session(matrices, a, b, session_id=2)
        # Random draws differ (overwhelmingly likely to change results).
        assert (r1.best_rtt_ms, r1.quality_paths) != (r2.best_rtt_ms, r2.quality_paths)

    def test_probe_budget_respected(self, world):
        _, matrices, _ = world
        rand = RANDMethod(BaselineConfig(random_probes=30))
        a, b = a_session(matrices)
        result = rand.evaluate_session(matrices, a, b)
        assert result.probed_nodes <= 30

    def test_population_weighting(self, world):
        # Clusters with more hosts must be drawn more often.
        _, matrices, _ = world
        rand = RANDMethod(BaselineConfig(random_probes=2000))
        sizes = matrices.sizes.astype(float)
        weights = sizes / sizes.sum()
        rng = rand._session_rng(0)
        draws = rng.choice(matrices.count, size=2000, replace=True, p=weights)
        counts = np.bincount(draws, minlength=matrices.count)
        big = int(np.argmax(matrices.sizes))
        small = int(np.argmin(matrices.sizes))
        assert counts[big] >= counts[small]


class TestMIX:
    def test_combines_budgets(self, world):
        _, matrices, graph = world
        config = BaselineConfig(mix_dedicated=5, mix_random=15)
        mix = MIXMethod(graph, config)
        a, b = a_session(matrices)
        result = mix.evaluate_session(matrices, a, b)
        assert result.probed_nodes <= 20
        assert result.messages == 2 * result.probed_nodes

    def test_best_of_both(self, world):
        _, matrices, graph = world
        config = BaselineConfig(mix_dedicated=5, mix_random=15)
        mix = MIXMethod(graph, config)
        a, b = a_session(matrices)
        result = mix.evaluate_session(matrices, a, b, session_id=3)
        dedi = DEDIMethod(graph, config, fleet_size=5).evaluate_session(
            matrices, a, b, 3
        )
        if result.best_rtt_ms is not None and dedi.best_rtt_ms is not None:
            assert result.best_rtt_ms <= dedi.best_rtt_ms


class TestOPT:
    def test_one_hop_excludes_endpoint_clusters(self, world):
        _, matrices, _ = world
        opt = OPTMethod()
        a, b = a_session(matrices)
        relay, _ = opt.best_one_hop(matrices, a, b)
        assert relay not in (a, b)

    def test_one_hop_is_minimum(self, world):
        _, matrices, _ = world
        opt = OPTMethod()
        a, b = a_session(matrices)
        _, best = opt.best_one_hop(matrices, a, b)
        path = matrices.rtt_ms[a, :] + matrices.rtt_ms[:, b] + 40.0
        path[a] = np.inf
        path[b] = np.inf
        assert best == pytest.approx(float(np.min(path)))

    def test_two_hop_excludes_endpoints_as_intermediates(self):
        # Regression: the vectorized min-plus two-hop used to let the
        # endpoints themselves serve as intermediate hops, so the
        # degenerate "path" a -> b -> b -> b (three legs of the direct
        # route plus zero-length self-legs) undercut every genuine
        # two-hop relay path.  Here the direct RTT is 5 ms while every
        # leg through the only real intermediates (clusters 2, 3) costs
        # 100 ms — the buggy answer would be 5 ms + 2*delay.
        from repro.measurement.matrix import DelegateMatrices
        from repro.netaddr.ipv4 import IPv4Prefix

        n = 4
        rtt = np.full((n, n), 100.0)
        np.fill_diagonal(rtt, 0.0)
        rtt[0, 1] = rtt[1, 0] = 5.0
        prefixes = [IPv4Prefix(i << 24, 8) for i in range(1, n + 1)]
        matrices = DelegateMatrices(
            prefixes=prefixes,
            index_of={p: i for i, p in enumerate(prefixes)},
            asn_of=np.arange(n, dtype=np.int64),
            sizes=np.ones(n, dtype=np.int64),
            rtt_ms=rtt,
            loss=np.zeros((n, n)),
            as_hops=np.ones((n, n), dtype=np.int64),
        )
        config = BaselineConfig()
        opt = OPTMethod(config)
        two = opt.best_two_hop(matrices, 0, 1)
        # Best legitimate path: 0 -> 2 -> 2 -> 1 (i == j allowed).
        assert two == pytest.approx(200.0 + 2 * config.relay_delay_rtt_ms)

    def test_two_hop_at_least_as_good_with_extra_delay(self, world):
        _, matrices, _ = world
        opt = OPTMethod()
        a, b = a_session(matrices)
        _, one = opt.best_one_hop(matrices, a, b)
        two = opt.best_two_hop(matrices, a, b)
        # Chaining the optimal one-hop relay with a zero-length second
        # leg costs one extra relay delay, so two-hop can't beat one-hop
        # by more than it saves in path terms — sanity bound only:
        assert two is not None
        assert two <= one + 1000.0

    def test_offline_no_messages(self, world):
        _, matrices, _ = world
        opt = OPTMethod()
        a, b = a_session(matrices)
        result = opt.evaluate_session(matrices, a, b)
        assert result.messages == 0
        assert result.probed_nodes == 0

    def test_quality_counts_sum_cluster_sizes(self, world):
        _, matrices, _ = world
        opt = OPTMethod()
        a, b = a_session(matrices)
        result = opt.evaluate_session(matrices, a, b)
        path = matrices.rtt_ms[a, :] + matrices.rtt_ms[:, b] + 40.0
        mask = np.isfinite(path) & (path < 300.0)
        mask[a] = mask[b] = False
        assert result.quality_paths == int(matrices.sizes[mask].sum())

    def test_opt_beats_or_matches_probing_methods(self, world):
        _, matrices, graph = world
        config = BaselineConfig()
        opt = OPTMethod(config)
        dedi = DEDIMethod(graph, config)
        rand = RANDMethod(config)
        rng = np.random.default_rng(1)
        for sid in range(10):
            a, b = rng.integers(0, matrices.count, 2)
            if a == b:
                continue
            a, b = int(a), int(b)
            best_opt = opt.evaluate_session(matrices, a, b, sid).best_rtt_ms
            for method in (dedi, rand):
                other = method.evaluate_session(matrices, a, b, sid).best_rtt_ms
                if other is not None and best_opt is not None:
                    assert best_opt <= other + 1e-9
