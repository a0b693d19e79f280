"""Tests for runtime fault tolerance: retries, failover, chaos runs."""

import numpy as np
import pytest

from repro.core import ASAPConfig
from repro.core.config import derive_k_hops
from repro.core.dial import (
    BACKOFF_BASE_MS,
    BACKOFF_FACTOR,
    JOIN_TIMEOUT_MS,
    MAX_JOIN_ATTEMPTS,
    MAX_PING_ATTEMPTS,
    backoff_ms,
)
from repro.core.runtime import ASAPRuntime
from repro.evaluation.chaos import run_chaos, sweep_chaos
from repro.faults import FaultScheduleConfig
from repro.voip.outage import OutageWindow, account_outages, merge_windows
from tests.oracles import tiny_scenario


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


def relayed_setup(runtime, scenario):
    """A completed latent call that actually selected a relay."""
    m = scenario.matrices
    clusters = scenario.clusters.all_clusters()
    for a, b in np.argwhere(m.rtt_ms > 300):
        ca, cb = clusters[int(a)], clusters[int(b)]
        if not (ca.hosts and cb.hosts):
            continue
        record = runtime.schedule_call(
            ca.hosts[0].ip, cb.hosts[0].ip, at_ms=runtime.sim.now_ms
        )
        runtime.run()
        if record.outcome == "completed" and record.relay_ip is not None:
            return record
    pytest.skip("no latent pair with a live relay candidate")


class TestRuntimePolicy:
    def test_defaults_valid(self):
        assert backoff_ms(0) == BACKOFF_BASE_MS
        assert backoff_ms(2) == BACKOFF_BASE_MS * BACKOFF_FACTOR**2


class TestJoinFaults:
    def test_join_fails_over_to_next_bootstrap(self, scenario, runtime):
        ip = scenario.population.hosts[0].ip
        first = runtime.bootstrap_hosts[ip.value % len(runtime.bootstrap_hosts)]
        runtime.network.set_host_down(first.ip)
        record = runtime.schedule_join(ip)
        runtime.run()
        assert record.outcome == "completed"
        assert record.attempts == 2
        assert record.completed_ms is not None
        # The retry waited out a timeout + backoff before succeeding.
        assert record.completed_ms - record.started_ms > JOIN_TIMEOUT_MS

    def test_join_fails_when_all_bootstraps_down(self, scenario, runtime):
        for host in runtime.bootstrap_hosts:
            runtime.network.set_host_down(host.ip)
        record = runtime.schedule_join(scenario.population.hosts[0].ip)
        runtime.run()
        assert record.outcome == "failed"
        assert record.failure_reason == "join-timeout"
        assert record.completed_ms is None  # failed joins never complete
        assert record.attempts == MAX_JOIN_ATTEMPTS

    def test_failed_join_counted_in_obs(self, scenario):
        from repro import obs

        with obs.observe(command="test") as observer:
            runtime = ASAPRuntime(scenario, ASAPConfig())
            for host in runtime.bootstrap_hosts:
                runtime.network.set_host_down(host.ip)
            runtime.schedule_join(scenario.population.hosts[0].ip)
            runtime.run()
            counters = observer.registry.snapshot()["counters"]
        assert counters.get("runtime.joins_failed") == 1


class TestCallSetupFaults:
    def test_callee_down_fails_terminally(self, scenario, runtime):
        caller, callee = latent_host_pair(scenario)
        runtime.network.set_host_down(callee)
        record = runtime.schedule_call(caller, callee)
        runtime.run()
        assert record.outcome == "failed"
        assert record.failure_reason == "ping-timeout"
        assert record.attempts == MAX_PING_ATTEMPTS
        assert record.completed_ms is None
        assert not runtime.pending_records()

    def test_own_surrogate_group_down_degrades_to_direct(self, scenario, runtime):
        caller, callee = latent_host_pair(scenario)
        cluster = runtime.system.cluster_of_ip(caller)
        for member in runtime.system.surrogate_group(cluster):
            if member.ip not in (caller, callee):
                runtime.network.set_host_down(member.ip)
        record = runtime.schedule_call(caller, callee)
        runtime.run()
        assert record.outcome in ("degraded", "completed")
        if record.outcome == "degraded":
            assert record.failure_reason == "close-set-unavailable"
            assert record.path == "direct"
            assert record.completed_ms is not None  # degraded still terminates

    def test_zero_faults_full_outcomes(self, scenario, runtime):
        caller, callee = latent_host_pair(scenario)
        record = runtime.schedule_call(caller, callee)
        runtime.run()
        assert record.outcome in ("completed", "degraded")
        assert record.outcome != "pending"
        assert record.attempts == 1
        assert record.retries == 0


class TestRelayExclusion:
    def test_offline_relay_cluster_leaves_selection(self, scenario):
        """Regression: churned-dark clusters must not stay relay candidates."""
        config = ASAPConfig(k_hops=derive_k_hops(scenario.matrices))
        runtime = ASAPRuntime(scenario, config)
        record = relayed_setup(runtime, scenario)
        target = record.relay_cluster
        # Take every host of the selected relay cluster offline.
        fresh = ASAPRuntime(scenario, config)
        for host in fresh.system.online_hosts_in_cluster(target):
            fresh.system.leave(host.ip)
        assert fresh.system.online_sizes[target] == 0
        session = fresh.system.call(record.caller, record.callee)
        if session.selection is not None:
            assert target not in session.selection.one_hop["cluster"].tolist()
            assert target not in session.selection.two_hop["first"].tolist()
            assert target not in session.selection.two_hop["second"].tolist()

    def test_pick_relay_skips_offline_hosts(self, scenario):
        config = ASAPConfig(k_hops=derive_k_hops(scenario.matrices))
        runtime = ASAPRuntime(scenario, config)
        record = relayed_setup(runtime, scenario)
        first_choice = record.relay_ip
        runtime.system.leave(first_choice)
        again = runtime.schedule_call(
            record.caller, record.callee, at_ms=runtime.sim.now_ms
        )
        runtime.run()
        assert again.outcome in ("completed", "degraded")
        assert again.relay_ip != first_choice


class TestKeepaliveFailover:
    def test_relay_death_triggers_failover_or_degrade(self, scenario):
        config = ASAPConfig(k_hops=derive_k_hops(scenario.matrices))
        runtime = ASAPRuntime(scenario, config)
        caller, callee = latent_host_pair(scenario)
        record = runtime.schedule_call(
            caller, callee, media_duration_ms=12_000.0
        )
        runtime.run(until_ms=5_000.0)
        if record.outcome != "completed" or record.relay_ip is None:
            pytest.skip("setup did not select a relay on this scenario")
        media = runtime.media_sessions[0]
        runtime.schedule_leave(record.relay_ip, at_ms=runtime.sim.now_ms + 100.0)
        runtime.run()
        assert media.outcome in ("finished", "dropped")
        assert media.failovers, "relay death must be detected via keepalives"
        event = media.failovers[0]
        assert event.interruption_ms > 0
        assert event.old_relay == record.relay_ip
        if event.new_relay is not None:
            assert event.new_relay != record.relay_ip
            assert media.relay_ip == media.failovers[-1].new_relay or media.degraded_to_direct
        assert media.impact is not None
        assert media.impact.interruption_ms > 0
        assert media.impact.mos_dip >= 0

    def test_late_call_outage_scored_call_relative(self, scenario):
        """Regression: outage windows must be shifted call-relative.

        Windows are recorded in absolute sim time; they used to be passed
        to account_outages unshifted, so any call whose start time
        exceeded its own duration (the normal case mid-run) had every
        window clipped away and scored mos_dip == 0.
        """
        config = ASAPConfig(k_hops=derive_k_hops(scenario.matrices))
        runtime = ASAPRuntime(scenario, config)
        caller, callee = latent_host_pair(scenario)
        record = runtime.schedule_call(
            caller, callee, at_ms=60_000.0, media_duration_ms=8_000.0
        )
        # Set-up, then the callee's admission, before media starts.
        runtime.run(until_ms=64_000.0)
        if record.outcome != "completed" or record.relay_ip is None:
            pytest.skip("setup did not select a relay on this scenario")
        media = runtime.media_sessions[0]
        assert media.started_ms > media.duration_ms  # the failing regime
        runtime.schedule_leave(record.relay_ip, at_ms=runtime.sim.now_ms + 100.0)
        runtime.run()
        assert media.failovers
        assert media.impact is not None
        assert media.impact.interruption_ms > 0
        assert media.impact.mos_dip > 0

    def test_dropped_call_tail_counts_as_outage(self, scenario, monkeypatch):
        """A dropped call keeps its scheduled duration; the undelivered
        tail is scored as outage rather than silently truncated."""
        config = ASAPConfig(k_hops=derive_k_hops(scenario.matrices))
        runtime = ASAPRuntime(scenario, config)
        caller, callee = latent_host_pair(scenario)
        record = runtime.schedule_call(
            caller, callee, media_duration_ms=20_000.0
        )
        runtime.run(until_ms=5_000.0)
        if record.outcome != "completed" or record.relay_ip is None:
            pytest.skip("setup did not select a relay on this scenario")
        media = runtime.media_sessions[0]
        scheduled_end = media.ends_ms
        # No surviving relay candidate and no direct route: every other
        # host goes dark and the latency model reports every pair as
        # unreachable, so the failover chain must end in a drop.
        for host in scenario.population.hosts:
            if host.ip not in (caller, callee):
                runtime.network.set_host_down(host.ip)
        monkeypatch.setattr(scenario.latency, "host_rtt_ms", lambda a, b: None)
        runtime.run()
        assert media.outcome == "dropped"
        assert media.ends_ms == scheduled_end
        last = media.outage_windows[-1]
        assert last.end_ms == scheduled_end
        assert media.impact is not None
        assert media.impact.interruption_ms > 0
        assert media.impact.mos_dip > 0

    def test_fault_free_media_session_clean(self, scenario):
        config = ASAPConfig(k_hops=derive_k_hops(scenario.matrices))
        runtime = ASAPRuntime(scenario, config)
        caller, callee = latent_host_pair(scenario)
        runtime.schedule_call(caller, callee, media_duration_ms=6_000.0)
        runtime.run()
        assert runtime.media_sessions
        media = runtime.media_sessions[0]
        assert media.outcome == "finished"
        assert not media.failovers
        assert media.impact is not None
        assert media.impact.mos_dip == 0.0
        assert media.impact.interruption_ms == 0.0


class TestRepeatedChurn:
    def test_repeated_surrogate_failures_reelect_consistently(self, scenario):
        """Repeated failures on one cluster keep promoting fresh primaries,
        and the system's surrogate table serves the latest one."""
        runtime = ASAPRuntime(scenario, ASAPConfig())
        big = max(scenario.clusters.all_clusters(), key=len)
        if len(big) < 3:
            pytest.skip("need a cluster with >= 3 hosts")
        idx = scenario.matrices.index_of[big.prefix]
        seen = [runtime.system.surrogate(idx).ip]
        for round_no in range(2):
            fresh = runtime.system.leave(runtime.system.surrogate(idx).ip)
            assert fresh.ip not in seen, "re-election must not resurrect the dead"
            seen.append(fresh.ip)
            assert runtime.system.surrogate(idx).ip == fresh.ip
            online = {h.ip for h in runtime.system.online_hosts_in_cluster(idx)}
            assert fresh.ip in online and not online & set(seen[:-1])

    def test_exhausting_cluster_goes_dark(self, scenario):
        runtime = ASAPRuntime(scenario, ASAPConfig())
        sized = sorted(scenario.clusters.all_clusters(), key=len)
        cluster = next((c for c in sized if len(c) == 2), None)
        if cluster is None:
            pytest.skip("no 2-host cluster")
        idx = scenario.matrices.index_of[cluster.prefix]
        last = runtime.system.leave(runtime.system.surrogate(idx).ip)
        assert last is not None
        assert runtime.system.leave(last.ip) is None
        assert runtime.system.online_sizes[idx] == 0


class TestChaosRuns:
    def test_no_call_ever_hangs_under_faults(self, scenario):
        config = FaultScheduleConfig(
            seed=9,
            duration_ms=30_000,
            surrogate_crash_rate_per_min=6.0,
            host_churn_rate_per_min=40.0,
            message_loss_rate=0.05,
            random_as_outages=1,
        )
        result = run_chaos(
            scenario, config, sessions=20, joins=20, media_duration_ms=5_000, seed=3
        )
        assert sum(result.call_outcomes.values()) == 20
        assert set(result.call_outcomes) <= {"completed", "degraded", "failed"}
        assert set(result.join_outcomes) <= {"completed", "failed"}
        assert set(result.media_outcomes) <= {"finished", "dropped"}

    def test_no_call_hangs_at_fault_seed_3(self, scenario):
        config = FaultScheduleConfig(
            seed=3,
            duration_ms=30_000,
            surrogate_crash_rate_per_min=6.0,
            host_churn_rate_per_min=40.0,
            message_loss_rate=0.02,
            random_as_outages=1,
        )
        # run_chaos raises if anything is still pending at the end.
        result = run_chaos(scenario, config, sessions=25, joins=25, seed=7)
        assert sum(result.call_outcomes.values()) == 25
        assert set(result.call_outcomes) | set(result.join_outcomes) <= {
            "completed", "degraded", "failed"
        }
        assert result.fault_log

    def test_chaos_is_deterministic(self, scenario):
        config = FaultScheduleConfig(
            seed=4,
            duration_ms=20_000,
            host_churn_rate_per_min=30.0,
            message_loss_rate=0.02,
        )
        a = run_chaos(scenario, config, sessions=15, joins=15, seed=2)
        b = run_chaos(scenario, config, sessions=15, joins=15, seed=2)
        assert a.to_json() == b.to_json()
        assert a.fault_log == b.fault_log

    def test_zero_fault_chaos_all_clean(self, scenario):
        result = run_chaos(
            scenario,
            FaultScheduleConfig(duration_ms=20_000),
            sessions=15,
            joins=15,
            seed=2,
        )
        assert result.fault_events == 0
        assert result.fault_log == []
        assert "failed" not in result.call_outcomes
        assert result.request_timeouts == 0

    def test_sweep_scales_intensity(self, scenario):
        base = FaultScheduleConfig(
            seed=6, duration_ms=15_000, host_churn_rate_per_min=40.0
        )
        results = sweep_chaos(
            scenario, base, intensities=(0.0, 1.0), sessions=10, joins=10, seed=1
        )
        assert results[0][1].fault_events == 0
        assert results[1][1].fault_events > 0


class TestOutageAccounting:
    def test_merge_windows(self):
        merged = merge_windows(
            [
                OutageWindow(start_ms=0, end_ms=100),
                OutageWindow(start_ms=50, end_ms=150),
                OutageWindow(start_ms=300, end_ms=400),
            ]
        )
        assert [(w.start_ms, w.end_ms) for w in merged] == [(0, 150), (300, 400)]

    def test_account_outages_weights_by_time(self):
        impact = account_outages(
            base_mos=4.0,
            duration_ms=1_000.0,
            windows=[OutageWindow(start_ms=0, end_ms=500)],
        )
        assert impact.outage_fraction == pytest.approx(0.5)
        assert impact.effective_mos == pytest.approx(2.5)
        assert impact.mos_dip == pytest.approx(1.5)

    def test_windows_clipped_to_call(self):
        impact = account_outages(
            base_mos=4.0,
            duration_ms=1_000.0,
            windows=[OutageWindow(start_ms=900, end_ms=5_000)],
        )
        assert impact.interruption_ms == pytest.approx(100.0)

    def test_no_windows_no_dip(self):
        impact = account_outages(base_mos=4.2, duration_ms=1_000.0, windows=[])
        assert impact.mos_dip == 0.0
        assert impact.effective_mos == 4.2
