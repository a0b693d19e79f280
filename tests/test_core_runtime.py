"""Tests for the event-driven ASAP runtime (joins + call setups)."""

import numpy as np
import pytest

from repro import obs
from repro.core import ASAPConfig, ASAPSystem
from repro.worldarrays.closesets import CloseClusterSet
from repro.core.config import derive_k_hops
from repro.core.runtime import ASAPRuntime
from repro.scenario import tiny_scenario
from repro.worldarrays import FlatCloseSetBuilder


@pytest.fixture(scope="module")
def scenario():
    return tiny_scenario(seed=11)


@pytest.fixture()
def runtime(scenario):
    return ASAPRuntime(
        scenario, ASAPConfig(k_hops=derive_k_hops(scenario.matrices))
    )


def latent_host_pair(scenario):
    m = scenario.matrices
    clusters = scenario.clusters.all_clusters()
    for a, b in np.argwhere(m.rtt_ms > 300):
        ca, cb = clusters[int(a)], clusters[int(b)]
        if ca.hosts and cb.hosts:
            return ca.hosts[0].ip, cb.hosts[0].ip
    pytest.skip("no latent pair")


def good_host_pair(scenario):
    m = scenario.matrices
    clusters = scenario.clusters.all_clusters()
    for a, b in np.argwhere(np.isfinite(m.rtt_ms) & (m.rtt_ms < 120)):
        if a == b:
            continue
        ca, cb = clusters[int(a)], clusters[int(b)]
        if ca.hosts and cb.hosts:
            return ca.hosts[0].ip, cb.hosts[0].ip
    pytest.skip("no good pair")


class TestJoinFlow:
    def test_join_completes_with_positive_duration(self, scenario, runtime):
        ip = scenario.population.hosts[0].ip
        record = runtime.schedule_join(ip, at_ms=0.0)
        runtime.run()
        assert record.completed_ms is not None
        assert record.duration_ms > 0

    def test_join_sends_messages(self, scenario, runtime):
        ip = scenario.population.hosts[0].ip
        runtime.schedule_join(ip)
        runtime.run()
        assert runtime.network.sent_by_category["join-request"] == 1
        assert runtime.network.sent_by_category["publish-nodal-info"] == 1

    def test_many_joins(self, scenario, runtime):
        for host in scenario.population.hosts[:20]:
            runtime.schedule_join(host.ip, at_ms=float(host.ip.value % 50))
        runtime.run()
        completed = [j for j in runtime.joins if j.completed_ms is not None]
        assert len(completed) >= 18  # a couple may sit behind failures


class TestCallSetup:
    def test_good_pair_setup_is_one_ping(self, scenario, runtime):
        caller, callee = good_host_pair(scenario)
        record = runtime.schedule_call(caller, callee)
        runtime.run()
        assert record.setup_ms is not None
        direct = scenario.latency.host_rtt_ms(
            scenario.population.by_ip(caller), scenario.population.by_ip(callee)
        )
        # One measured ping; set-up times are reported to the microsecond.
        assert record.setup_ms == pytest.approx(direct, abs=5e-4)
        assert not record.relay_needed

    def test_latent_pair_setup_bounded_by_few_rtts(self, scenario, runtime):
        caller, callee = latent_host_pair(scenario)
        record = runtime.schedule_call(caller, callee)
        runtime.run()
        assert record.setup_ms is not None
        assert record.relay_needed
        # Setup is a handful of RTTs — single-digit seconds even on a
        # terrible path, versus Skype's tens-to-hundreds of seconds.
        assert record.setup_ms < 10_000.0
        assert record.setup_ms > record.direct_rtt_ms  # ping + fetches

    def test_callback_invoked(self, scenario, runtime):
        caller, callee = latent_host_pair(scenario)
        seen = []
        runtime.schedule_call(caller, callee, on_complete=seen.append)
        runtime.run()
        assert len(seen) == 1
        assert seen[0].setup_ms is not None

    def test_concurrent_calls(self, scenario, runtime):
        caller, callee = latent_host_pair(scenario)
        caller2, callee2 = good_host_pair(scenario)
        runtime.schedule_call(caller, callee, at_ms=0.0)
        runtime.schedule_call(caller2, callee2, at_ms=5.0)
        runtime.run()
        assert len(runtime.setup_times_ms()) == 2

    def test_bounded_run_suspends_flows_and_the_next_run_finishes_them(
        self, scenario, runtime
    ):
        caller, callee = latent_host_pair(scenario)
        join = runtime.schedule_join(scenario.population.hosts[0].ip)
        call = runtime.schedule_call(caller, callee, media_duration_ms=30_000.0)
        # Stop mid-ping: both flows are parked on an exchange.
        runtime.run(until_ms=1.0)
        assert runtime.sim.now_ms == 1.0
        assert runtime.pending_records() == [join, call]
        assert call.attempts == 1 and call.selection is None
        # Stop again mid-call: setup is done, the keepalive loop is parked.
        runtime.run(until_ms=10_000.0)
        assert call.outcome == "completed" and join.outcome == "completed"
        (media,) = runtime.media_sessions
        assert runtime.pending_records() == [media]
        assert media.relay_ip is not None and 0 < media.keepalives < 10
        runtime.run()
        assert runtime.pending_records() == []
        assert media.outcome == "finished"

        # The stops are invisible: an unbounded run lands on the same times.
        straight = ASAPRuntime(scenario, runtime.system.config)
        other = straight.schedule_call(caller, callee, media_duration_ms=30_000.0)
        straight.run()
        assert other.completed_ms == call.completed_ms
        assert straight.media_sessions[0].keepalives == media.keepalives
        assert straight.sim.now_ms == runtime.sim.now_ms

    def test_messages_flow_through_network(self, scenario, runtime):
        caller, callee = latent_host_pair(scenario)
        runtime.schedule_call(caller, callee)
        runtime.run()
        assert runtime.network.sent_by_category["ping"] == 1
        assert runtime.network.sent_by_category["close-set-request"] >= 2


class TestMultiSurrogate:
    def test_large_cluster_gets_multiple_surrogates(self, scenario):
        from repro.core import ASAPSystem

        system = ASAPSystem(scenario, ASAPConfig(hosts_per_surrogate=5))
        big = max(scenario.clusters.all_clusters(), key=len)
        if len(big) < 6:
            pytest.skip("no cluster large enough")
        idx = scenario.matrices.index_of[big.prefix]
        group = system.surrogate_group(idx)
        assert len(group) == -(-len(big) // 5)
        # Replicas serve the primary's close set object.
        assert group[1].close_set() is group[0].close_set()

    def test_requests_spread_over_group(self, scenario):
        from repro.core import ASAPSystem

        system = ASAPSystem(scenario, ASAPConfig(hosts_per_surrogate=5))
        big = max(scenario.clusters.all_clusters(), key=len)
        if len(big) < 11:
            pytest.skip("no cluster large enough")
        idx = scenario.matrices.index_of[big.prefix]
        served = set()
        for host in scenario.population.hosts[:40]:
            served.add(system.surrogate(idx, requester=host.ip).ip)
        assert len(served) > 1

    def test_maintenance_counted_once_per_cluster(self, scenario):
        from repro.core import ASAPSystem

        multi = ASAPSystem(scenario, ASAPConfig(hosts_per_surrogate=5))
        single = ASAPSystem(scenario, ASAPConfig(hosts_per_surrogate=10**9))
        big = max(scenario.clusters.all_clusters(), key=len)
        idx = scenario.matrices.index_of[big.prefix]
        multi.close_set(idx)
        single.close_set(idx)
        # Replicas share the primary's probes — no duplicate traffic.
        assert multi.maintenance_messages() == single.maintenance_messages()


class TestBatchedCloseSets:
    """Sets are computed a sweep at a time and reported when first served."""

    @staticmethod
    def _spy_sweeps(monkeypatch):
        sweeps = []
        build_many = FlatCloseSetBuilder.build_many

        def spy(self, sources, online=None):
            sources = list(sources)
            sweeps.append([cluster for cluster, _ in sources])
            return build_many(self, sources, online)

        monkeypatch.setattr(FlatCloseSetBuilder, "build_many", spy)
        return sweeps

    def test_reelected_surrogate_reports_its_build_when_first_served(
        self, scenario, monkeypatch
    ):
        config = ASAPConfig(k_hops=derive_k_hops(scenario.matrices))
        system = ASAPSystem(scenario, config)
        view = scenario.matrix_view()
        cluster = next(
            c for c in range(view.count) if len(system.online_hosts_in_cluster(c)) > 1
        )
        other = next(c for c in range(view.count) if c != cluster)
        expected = system.close_set_builder.build(cluster, int(view.asn_of[cluster]))
        sweeps = self._spy_sweeps(monkeypatch)
        system.want([cluster])
        with obs.observe() as run:
            count = run.registry.counter_value
            system.surrogate(other).serve_close_set()
            assert sweeps == [[other, cluster]]
            assert count("close_set.built") == 1  # computed, not yet reported
            promoted = system.leave(system.surrogate(cluster).ip)
            served = promoted.serve_close_set()
            assert (sweeps, count("close_set.built")) == ([[other, cluster]], 2)
            assert served == expected
            refreshed = promoted.refresh()
            assert (sweeps[-1], count("close_set.built")) == ([cluster], 3)
            assert refreshed == expected and refreshed is not served

    def test_run_names_the_endpoint_clusters_of_pending_calls(
        self, scenario, runtime, monkeypatch
    ):
        clusters = scenario.clusters.all_clusters()
        first = latent_host_pair(scenario)
        taken = {runtime.system.cluster_of_ip(ip) for ip in first}
        later = next(
            (clusters[int(a)].hosts[0].ip, clusters[int(b)].hosts[0].ip)
            for a, b in np.argwhere(scenario.matrices.rtt_ms > 300)
            if clusters[int(a)].hosts and clusters[int(b)].hosts and not {a, b} & taken
        )
        sweeps = self._spy_sweeps(monkeypatch)
        records = [
            runtime.schedule_call(*first),
            runtime.schedule_call(*later, at_ms=60_000.0),
        ]
        runtime.run()
        assert all(record.outcome != "pending" for record in records)
        # The first build already computed the later call's endpoints.
        endpoints = {runtime.system.cluster_of_ip(ip) for ip in (*first, *later)}
        assert endpoints <= set(sweeps[0])

    def test_assembled_sets_pass_the_validating_constructor(self, scenario):
        system = ASAPSystem(scenario, ASAPConfig(k_hops=derive_k_hops(scenario.matrices)))
        view = scenario.matrix_view()
        built = system.close_set_builder.build_many(
            (c, int(view.asn_of[c])) for c in range(view.count)
        )
        assert any(len(close_set) > 1 for close_set in built.values())
        for close_set in built.values():
            checked = CloseClusterSet(
                close_set.owner,
                close_set.ids,
                close_set.rtt_ms,
                close_set.loss,
                close_set.as_hops,
                probe_messages=close_set.probe_messages,
                ases_visited=close_set.ases_visited,
                probes_by_as=dict(close_set.probes_by_as),
            )
            assert checked == close_set
            for name in ("ids", "rtt_ms", "loss", "as_hops"):
                assert getattr(checked, name).dtype == getattr(close_set, name).dtype
