"""Tests for the DEDI / RAND / MIX / OPT baselines."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro import obs
from repro.baselines import (
    DEDIMethod,
    MIXMethod,
    OPTMethod,
    RANDMethod,
)
from repro.baselines.base import MIX_DEDICATED, MIX_RANDOM, session_batch
from repro.bgp.asgraph import ASGraph
from repro.errors import ConfigurationError
from repro.measurement.latency import RELAY_DELAY_RTT_MS
from repro.measurement.matrix import DelegateMatrices
from repro.netaddr.ipv4 import IPv4Prefix
from repro.scenario import tiny_scenario
from tests.oracles import best_one_hop, best_two_hop, evaluate_session, reference_opt_scores


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
    """The baselines' settable inputs: probe budgets and session batches."""

    def test_rejects_negative_counts(self):
        with pytest.raises(ConfigurationError, match="fleet_size"):
            DEDIMethod(ASGraph(), fleet_size=-1)
        with pytest.raises(ConfigurationError, match="probes"):
            RANDMethod(probes=-1)

    def test_accepts_numpy_counts(self, world):
        _, matrices, graph = world
        assert RANDMethod(probes=np.int64(7))._draws(matrices, [0]).shape == (1, 7)
        assert len(DEDIMethod(graph, fleet_size=np.int64(7)).fleet_for(matrices)) == 7

    def test_rand_rejects_fractional_probe_override(self):
        with pytest.raises(ConfigurationError, match="probes"):
            RANDMethod(probes=2.5)

    @pytest.mark.parametrize("ids", [[5], [5, 6, 7]], ids=["short", "long"])
    def test_session_batch_rejects_mismatched_ids(self, ids):
        with pytest.raises(ConfigurationError, match="session_ids"):
            session_batch([(0, 1), (2, 3)], session_ids=ids)


class TestDEDI:
    def test_fleet_in_top_degree_clusters(self, world):
        _, matrices, graph = world
        dedi = DEDIMethod(graph, fleet_size=10)
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
        dedi = DEDIMethod(graph, fleet_size=10)
        a, b = a_session(matrices)
        result = evaluate_session(dedi, matrices, a, b)
        assert result.messages == 2 * result.probed_nodes
        assert result.probed_nodes <= 10

    def test_endpoints_excluded_from_fleet_probes(self, world):
        _, matrices, graph = world
        dedi = DEDIMethod(graph, fleet_size=matrices.count)
        a, b = a_session(matrices)
        result = evaluate_session(dedi, matrices, a, b)
        assert result.probed_nodes == matrices.count - 2

    def test_quality_counts_threshold(self, world):
        _, matrices, graph = world
        dedi = DEDIMethod(graph, fleet_size=20)
        a, b = a_session(matrices)
        result = evaluate_session(dedi, matrices, a, b)
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
        rand = RANDMethod(probes=50)
        a, b = a_session(matrices)
        r1 = evaluate_session(rand, matrices, a, b, session_id=7)
        r2 = evaluate_session(rand, matrices, a, b, session_id=7)
        assert r1 == r2

    def test_different_sessions_differ(self, world):
        _, matrices, _ = world
        rand = RANDMethod(probes=50)
        a, b = a_session(matrices)
        r1 = evaluate_session(rand, matrices, a, b, session_id=1)
        r2 = evaluate_session(rand, matrices, a, b, session_id=2)
        # Random draws differ (overwhelmingly likely to change results).
        assert (r1.best_rtt_ms, r1.quality_paths) != (r2.best_rtt_ms, r2.quality_paths)

    def test_probe_budget_respected(self, world):
        _, matrices, _ = world
        rand = RANDMethod(probes=30)
        a, b = a_session(matrices)
        result = evaluate_session(rand, matrices, a, b)
        assert result.probed_nodes <= 30

    def test_population_weighting(self, world):
        # Clusters with more hosts must be drawn more often.
        _, matrices, _ = world
        rand = RANDMethod(probes=2000)
        sizes = matrices.sizes.astype(float)
        weights = sizes / sizes.sum()
        rng = rand._session_rng(0)
        draws = rng.choice(matrices.count, size=2000, replace=True, p=weights)
        counts = np.bincount(draws, minlength=matrices.count)
        big = int(np.argmax(matrices.sizes))
        small = int(np.argmin(matrices.sizes))
        assert counts[big] >= counts[small]


    @pytest.mark.parametrize("weights", ["cluster_sizes", "skewed"])
    def test_cdf_draws_equal_generator_choice(self, world, weights):
        # One CDF per batch must reproduce numpy's Generator.choice(...,
        # p=...) draw for draw (this pins numpy's algorithm).
        _, matrices, _ = world
        if weights == "cluster_sizes":
            sizes = matrices.sizes
        else:  # zero weights inside and at the end, one dominant cluster
            sizes = np.array([0, 1, 0, 1000, 3, 0, 7, 0, 0], dtype=np.int64)
        view = SimpleNamespace(count=len(sizes), sizes=sizes)
        rand = RANDMethod()
        draws = rand._draws(view, list(range(50)))
        p = sizes / sizes.sum()
        for sid in range(50):
            expected = rand._session_rng(sid).choice(len(sizes), size=200, replace=True, p=p)
            assert np.array_equal(draws[sid], expected)


class TestMIX:
    def test_combines_budgets(self, world):
        _, matrices, graph = world
        mix = MIXMethod(graph)
        a, b = a_session(matrices)
        result = evaluate_session(mix, matrices, a, b)
        assert result.probed_nodes <= MIX_DEDICATED + MIX_RANDOM
        assert result.messages == 2 * result.probed_nodes

    def test_best_of_both(self, world):
        _, matrices, graph = world
        mix = MIXMethod(graph)
        a, b = a_session(matrices)
        result = evaluate_session(mix, matrices, a, b, session_id=3)
        dedi = evaluate_session(
            DEDIMethod(graph, fleet_size=MIX_DEDICATED), matrices, a, b, 3
        )
        if result.best_rtt_ms is not None and dedi.best_rtt_ms is not None:
            assert result.best_rtt_ms <= dedi.best_rtt_ms


class TestOPT:
    def test_one_hop_excludes_endpoint_clusters(self, world):
        _, matrices, _ = world
        opt = OPTMethod()
        a, b = a_session(matrices)
        relay, _ = best_one_hop(opt, matrices, a, b)
        assert relay not in (a, b)

    def test_one_hop_is_minimum(self, world):
        _, matrices, _ = world
        opt = OPTMethod()
        a, b = a_session(matrices)
        _, best = best_one_hop(opt, matrices, a, b)
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
        opt = OPTMethod()
        two = best_two_hop(opt, matrices, 0, 1)
        # Best legitimate path: 0 -> 2 -> 2 -> 1 (i == j allowed).
        assert two == pytest.approx(200.0 + 2 * RELAY_DELAY_RTT_MS)

    def test_two_hop_at_least_as_good_with_extra_delay(self, world):
        _, matrices, _ = world
        opt = OPTMethod()
        a, b = a_session(matrices)
        _, one = best_one_hop(opt, matrices, a, b)
        two = best_two_hop(opt, matrices, a, b)
        # Chaining the optimal one-hop relay with a zero-length second
        # leg costs one extra relay delay, so two-hop can't beat one-hop
        # by more than it saves in path terms — sanity bound only:
        assert two is not None
        assert two <= one + 1000.0

    def test_offline_no_messages(self, world):
        _, matrices, _ = world
        opt = OPTMethod()
        a, b = a_session(matrices)
        result = evaluate_session(opt, matrices, a, b)
        assert result.messages == 0
        assert result.probed_nodes == 0

    def test_quality_counts_sum_cluster_sizes(self, world):
        _, matrices, _ = world
        opt = OPTMethod()
        a, b = a_session(matrices)
        result = evaluate_session(opt, matrices, a, b)
        path = matrices.rtt_ms[a, :] + matrices.rtt_ms[:, b] + 40.0
        mask = np.isfinite(path) & (path < 300.0)
        mask[a] = mask[b] = False
        assert result.quality_paths == int(matrices.sizes[mask].sum())

    def test_opt_beats_or_matches_probing_methods(self, world):
        _, matrices, graph = world
        opt = OPTMethod()
        dedi = DEDIMethod(graph)
        rand = RANDMethod()
        rng = np.random.default_rng(1)
        for sid in range(10):
            a, b = rng.integers(0, matrices.count, 2)
            if a == b:
                continue
            a, b = int(a), int(b)
            best_opt = evaluate_session(opt, matrices, a, b, sid).best_rtt_ms
            for method in (dedi, rand):
                other = evaluate_session(method, matrices, a, b, sid).best_rtt_ms
                if other is not None and best_opt is not None:
                    assert best_opt <= other + 1e-9


def _four_cluster_world(r31: float) -> DelegateMatrices:
    """Caller 0, callee 1, relays 2 and 3: the best one-hop path is
    0 → 2 → 1 at (0 + 60) + 40 = 100 ms, the best two-hop path
    0 → 2 → 3 → 1 at (0 + (0 + r31)) + 80 ms; every other path is slower."""
    n = 4
    rtt = np.full((n, n), 500.0)
    np.fill_diagonal(rtt, 0.0)
    rtt[0, 2] = 0.0
    rtt[2, 1] = 60.0
    rtt[2, 3] = 0.0
    rtt[3, 1] = r31
    prefixes = [IPv4Prefix(i << 24, 8) for i in range(1, n + 1)]
    return DelegateMatrices(
        prefixes=prefixes,
        index_of={p: i for i, p in enumerate(prefixes)},
        asn_of=np.arange(n, dtype=np.int64),
        sizes=np.ones(n, dtype=np.int64),
        rtt_ms=rtt,
        loss=np.zeros((n, n)),
        as_hops=np.ones((n, n), dtype=np.int64),
    )


class TestOPTPruningBoundary:
    """The one-hop bound prunes a two-hop cell only when it cannot win:
    a two-hop path one ulp faster survives, a tying one may go."""

    def _score(self, matrices):
        opt = OPTMethod()
        with obs.observe() as run:
            result = evaluate_session(opt, matrices, 0, 1)
            cells = run.registry.counter_value("opt.two_hop_cells")
        quality, one, two = reference_opt_scores(matrices, [(0, 1)], 40.0, 300.0)
        assert result.quality_paths == int(quality[0])
        assert result.best_rtt_ms == float(min(one[0], two[0]))
        return result, best_two_hop(opt, matrices, 0, 1), cells

    def test_two_hop_one_ulp_faster_survives(self):
        ulp_below = float(np.nextafter(100.0, 0.0))
        result, two_hop, cells = self._score(_four_cluster_world(ulp_below - 80.0))
        assert result.best_rtt_ms == ulp_below
        assert two_hop == ulp_below
        assert cells == 1  # row 2 x column 3 only

    def test_two_hop_tie_is_pruned_without_changing_the_result(self):
        result, two_hop, cells = self._score(_four_cluster_world(20.0))
        assert result.best_rtt_ms == 100.0
        assert two_hop == 100.0  # best_two_hop folds with an infinite bound
        assert cells == 0
