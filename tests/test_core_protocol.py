"""Integration tests for the assembled ASAP system."""

from collections import Counter

import numpy as np
import pytest

from repro import obs
from repro.baselines.base import MethodResult
from repro.core import ASAPConfig, ASAPSystem
from repro.core.config import derive_k_hops
from repro.core.runtime import ASAPRuntime, _SimPort
from repro.errors import ConfigurationError, ProtocolError
from repro.measurement.latency import RELAY_DELAY_RTT_MS
from repro.evaluation.policies import ASAPPolicy
from repro.scenario import tiny_scenario
from repro.voip.quality import mos_of_path
from tests.oracles import dense_k_hops, prefix_contains


@pytest.fixture(scope="module")
def scenario():
    return tiny_scenario(seed=5)


@pytest.fixture(scope="module")
def system(scenario):
    return ASAPSystem(scenario, ASAPConfig(k_hops=derive_k_hops(scenario.matrices)))


def latent_pair(scenario):
    m = scenario.matrices
    latent = np.argwhere(m.rtt_ms > 300)
    for a, b in latent:
        ca = scenario.clusters.all_clusters()[int(a)]
        cb = scenario.clusters.all_clusters()[int(b)]
        if ca.hosts and cb.hosts:
            return ca.hosts[0].ip, cb.hosts[0].ip
    pytest.skip("no latent pair in tiny scenario")


def good_pair(scenario):
    m = scenario.matrices
    good = np.argwhere(np.isfinite(m.rtt_ms) & (m.rtt_ms < 150))
    for a, b in good:
        if a == b:
            continue
        ca = scenario.clusters.all_clusters()[int(a)]
        cb = scenario.clusters.all_clusters()[int(b)]
        if ca.hosts and cb.hosts:
            return ca.hosts[0].ip, cb.hosts[0].ip
    pytest.skip("no good pair in tiny scenario")


class TestConfig:
    def test_defaults_match_paper(self):
        config = ASAPConfig()
        assert config.k_hops == 4
        assert config.lat_threshold_ms == 300.0
        assert config.size_threshold == 300
        assert RELAY_DELAY_RTT_MS == 40.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ASAPConfig(k_hops=-1)
        with pytest.raises(ConfigurationError):
            ASAPConfig(lat_threshold_ms=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("lat_threshold_ms", float("nan")),
            ("size_threshold", float("nan")),
            ("size_threshold", 300.0),
            ("k_hops", 2.5),
            ("k_hops", True),
            ("hosts_per_surrogate", 1.5),
        ],
    )
    def test_rejects_nan_and_non_integer_counts(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            ASAPConfig(**{field: value})

    def test_numpy_integers_are_counts(self):
        config = ASAPConfig(k_hops=np.int64(5), hosts_per_surrogate=np.int32(7))
        assert (config.k_hops, config.hosts_per_surrogate) == (5, 7)

    def test_derive_k_hops_in_bounds(self, scenario):
        k = derive_k_hops(scenario.matrices)
        assert 2 <= k <= 8

    @pytest.mark.parametrize("threshold_ms", [40.0, 150.0, 300.0, 1e9])
    @pytest.mark.parametrize("quantile", [0.0, 37.5, 50.0, 90.0, 100.0])
    def test_derive_k_hops_matches_the_dense_percentile(
        self, scenario, threshold_ms, quantile
    ):
        args = dict(
            threshold_ms=threshold_ms, quantile=quantile, minimum=0, maximum=10**6
        )
        assert derive_k_hops(scenario.matrices, **args) == dense_k_hops(
            scenario.matrices, **args
        )


class TestMembership:
    def test_join_returns_correct_mapping(self, scenario, system):
        host = scenario.population.hosts[0]
        surrogate = system.join(host.ip)
        assert surrogate.asn == host.asn
        assert prefix_contains(scenario.matrices.prefixes[surrogate.cluster], host.ip)
        assert system.is_online(host.ip)

    def test_join_registers_nodal_info(self, scenario, system):
        host = scenario.population.hosts[1]
        system.join(host.ip)
        idx = system.cluster_of_ip(host.ip)
        assert host.ip in system.surrogate(idx).published_info

    def test_join_load_spreads_over_bootstraps(self, scenario):
        runtime = ASAPRuntime(scenario)
        first = Counter(
            _SimPort(runtime, host).bootstrap(0).host.ip
            for host in scenario.population.hosts[:30]
        )
        assert sum(first.values()) == 30
        assert len(first) >= 2

    def test_surrogate_is_most_capable(self, scenario, system):
        cluster = max(scenario.clusters.all_clusters(), key=len)
        idx = scenario.matrices.index_of[cluster.prefix]
        surrogate = system.surrogate(idx)
        best = min(cluster.hosts, key=lambda h: (-h.info.capability(), h.ip))
        assert surrogate.host.ip == best.ip

    def test_unknown_cluster_raises(self, system):
        with pytest.raises(ProtocolError):
            system.surrogate(10**6)


class TestSurrogateFailover:
    def test_failover_promotes_next_best(self, scenario):
        fresh = ASAPSystem(scenario)
        cluster = max(scenario.clusters.all_clusters(), key=len)
        if len(cluster) < 2:
            pytest.skip("no multi-host cluster")
        idx = scenario.matrices.index_of[cluster.prefix]
        old = fresh.surrogate(idx)
        new = fresh.leave(old.host.ip)
        assert new.host.ip != old.host.ip
        survivors = [h for h in cluster.hosts if h.ip != old.host.ip]
        assert new.host == min(survivors, key=lambda h: (-h.info.capability(), h.ip))
        assert fresh.surrogate(idx).ip == new.host.ip

    def test_failover_single_host_cluster_goes_dark(self, scenario):
        fresh = ASAPSystem(scenario)
        single = next(
            (c for c in scenario.clusters.all_clusters() if len(c) == 1), None
        )
        if single is None:
            pytest.skip("no single-host cluster")
        idx = scenario.matrices.index_of[single.prefix]
        assert fresh.leave(single.hosts[0].ip) is None
        assert fresh.online_sizes[idx] == 0


class TestCalling:
    def test_good_direct_path_needs_no_relay(self, scenario, system):
        caller, callee = good_pair(scenario)
        session = system.call(caller, callee)
        assert not session.relay_needed
        assert session.messages == 0
        assert session.quality_paths == 0
        assert session.best_path_rtt_ms == session.direct_rtt_ms

    def test_latent_session_runs_selection(self, scenario, system):
        caller, callee = latent_pair(scenario)
        session = system.call(caller, callee)
        assert session.relay_needed
        assert session.selection is not None
        assert session.messages >= 2

    def test_latent_session_finds_quality_relay(self, scenario, system):
        caller, callee = latent_pair(scenario)
        session = system.call(caller, callee)
        if session.best_relay_rtt_ms is None:
            pytest.skip("tiny world: close sets may miss")
        assert session.best_relay_rtt_ms < session.direct_rtt_ms
        assert session.best_path_rtt_ms == session.best_relay_rtt_ms

    def test_best_path_mos_in_range(self, scenario, system):
        caller, callee = latent_pair(scenario)
        session = system.call(caller, callee)
        assert 1.0 <= mos_of_path(session.best_path_rtt_ms, 0.005) <= 4.5

    def test_close_sets_cached_across_calls(self, scenario, system):
        caller, callee = latent_pair(scenario)
        idx = system.cluster_of_ip(caller)
        first = system.surrogate(idx).close_set()
        system.call(caller, callee)
        assert system.surrogate(idx).close_set() is first

    def test_maintenance_messages_accounted(self, scenario, system):
        caller, callee = latent_pair(scenario)
        system.call(caller, callee)
        assert system.maintenance_messages() > 0

    def test_relay_entries_respect_threshold(self, scenario, system):
        caller, callee = latent_pair(scenario)
        session = system.call(caller, callee)
        assert np.all(session.selection.one_hop["rtt_ms"] < system.config.lat_threshold_ms)
        assert np.all(session.selection.two_hop["rtt_ms"] < system.config.lat_threshold_ms)


def _per_call_results(system, pairs):
    """The session-by-session loop ``ASAPPolicy.evaluate_sessions`` ran
    before the evaluation had phases: the specification of the batch."""
    results = []
    for a, b in pairs:
        session = system.call(system.surrogate(a).ip, system.surrogate(b).ip)
        selection = session.selection
        results.append(
            MethodResult(
                method="ASAP",
                quality_paths=session.quality_paths,
                best_rtt_ms=session.best_relay_rtt_ms,
                messages=session.messages,
                probed_nodes=0,
                one_hop_quality_paths=selection.one_hop_ips if selection else 0,
            )
        )
    return results


def _observed(evaluate, scenario, config, pairs, obs_dir):
    """Run ``evaluate(system, pairs)`` on a fresh system with tracing on;
    everything an observer of the run can compare."""
    system = ASAPSystem(scenario, config)
    with obs.observe(obs_dir=obs_dir, trace=True) as run:
        results = evaluate(system, pairs)
        snapshot = run.registry.snapshot()
    for name, histogram in snapshot["histograms"].items():
        if name.startswith("span."):  # wall-clock seconds: only the count repeats
            snapshot["histograms"][name] = histogram["count"]
    requests = {
        (cluster, position): member.close_set_requests
        for cluster in range(scenario.matrix_view().count)
        for position, member in enumerate(system.surrogate_group(cluster))
    }
    return {
        "results": results,
        "sessions_run": system.sessions_run,
        "requests": requests,
        "maintenance": system.maintenance_messages(),
        "snapshot": snapshot,
        "traces": (obs_dir / "traces.jsonl").read_bytes(),
    }


class TestPhasedEvaluation:
    """``call_many`` (two batched builds) ≡ ``call`` session by session."""

    @pytest.mark.parametrize("seed", [5, 11])
    def test_phased_equals_per_call(self, seed, tmp_path):
        scenario = tiny_scenario(seed=seed)
        # Small surrogate groups, so replicas serve some of the requests.
        config = ASAPConfig(k_hops=derive_k_hops(scenario.matrices), hosts_per_surrogate=4)
        rtt = scenario.matrices.rtt_ms
        rng = np.random.default_rng(seed)
        latent = np.argwhere(~(np.isfinite(rtt) & (rtt < config.lat_threshold_ms)))
        mixed = np.concatenate((latent[:60], rng.integers(0, len(rtt), size=(40, 2))))
        pairs = [(int(a), int(b)) for a, b in rng.permutation(mixed) if a != b]
        phased = _observed(
            lambda system, batch: ASAPPolicy(system).evaluate_sessions(None, batch),
            scenario, config, pairs, tmp_path / "phased",
        )
        per_call = _observed(_per_call_results, scenario, config, pairs, tmp_path / "per-call")
        assert phased == per_call
        assert any(result.messages > 2 for result in phased["results"])  # two-hop ran
        assert phased["traces"].count(b"close_set.build") > 2
        assert any(count > 0 for (_, position), count in phased["requests"].items() if position)

    def test_call_is_the_one_session_batch(self, scenario):
        caller, callee = latent_pair(scenario)
        config = ASAPConfig(k_hops=derive_k_hops(scenario.matrices))
        one, many = ASAPSystem(scenario, config), ASAPSystem(scenario, config)
        assert [one.call(caller, callee)] == many.call_many([(caller, callee)])
        assert one.maintenance_messages() == many.maintenance_messages() > 0
