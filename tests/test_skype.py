"""Tests for the Skype-like simulator and trace analyzer."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.measurement.tools import KingEstimator
from repro.netaddr import IPv4Address
from repro.scenario import tiny_scenario
from repro.sim.trace import PacketRecord, SessionTrace
from repro.skype import (
    SkypeConfig,
    SupernodeOverlay,
    TraceAnalyzer,
    run_skype_session,
)
from repro.skype.analyzer import _carrier_switches, _stabilization_time
from repro.util.rng import derive_rng


@pytest.fixture(scope="module")
def scenario():
    return tiny_scenario(seed=8)


@pytest.fixture(scope="module")
def overlay(scenario):
    return SupernodeOverlay(scenario.population)


def pick_pair(scenario, min_rtt=250.0):
    m = scenario.matrices
    clusters = scenario.clusters.all_clusters()
    pairs = np.argwhere(np.isfinite(m.rtt_ms) & (m.rtt_ms > min_rtt))
    for a, b in pairs:
        ca, cb = clusters[int(a)], clusters[int(b)]
        if ca.hosts and cb.hosts:
            return ca.hosts[0].ip, cb.hosts[0].ip
    pytest.skip("no suitable pair")


class TestSkypeConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SkypeConfig(supernode_fraction=0.0)
        with pytest.raises(ConfigurationError):
            SkypeConfig(batch_size=0)
        with pytest.raises(ConfigurationError):
            SkypeConfig(switch_margin=-0.1)
        with pytest.raises(ConfigurationError):
            SkypeConfig(batch_interval_ms=0)


class TestSupernodeOverlay:
    def test_supernodes_are_most_capable(self, scenario, overlay):
        ranked = sorted(
            scenario.population.hosts,
            key=lambda h: (-h.info.capability(), h.ip),
        )
        expected = {h.ip for h in ranked[: len(overlay)]}
        assert {h.ip for h in overlay._supernodes} == expected

    def test_discover_respects_exclusions(self, scenario, overlay):
        rng = derive_rng(0, "t")
        exclude = {h.ip for h in overlay._supernodes[:5]}
        found = overlay.discover(rng, 10, exclude)
        assert all(h.ip not in exclude for h in found)

    def test_discover_no_duplicates(self, scenario, overlay):
        rng = derive_rng(1, "t")
        found = overlay.discover(rng, 20)
        ips = [h.ip for h in found]
        assert len(ips) == len(set(ips))

    def test_popularity_bias_concentrates(self, scenario):
        biased = SupernodeOverlay(scenario.population, SkypeConfig(popularity_bias=5.0))
        rng = derive_rng(2, "t")
        draws = []
        for _ in range(40):
            draws.extend(h.ip for h in biased.discover(rng, 3))
        top = max(set(draws), key=draws.count)
        assert draws.count(top) >= 5


class TestSkypeSession:
    def test_deterministic(self, scenario, overlay):
        caller, callee = pick_pair(scenario)
        a = run_skype_session(scenario, caller, callee, overlay, session_id=3)
        b = run_skype_session(scenario, caller, callee, overlay, session_id=3)
        assert [p.dst_ip for p in a.trace.caller_packets] == [
            p.dst_ip for p in b.trace.caller_packets
        ]

    def test_intervals_cover_duration(self, scenario, overlay):
        caller, callee = pick_pair(scenario)
        duration = 120_000.0
        res = run_skype_session(
            scenario, caller, callee, overlay, duration_ms=duration, session_id=1
        )
        for intervals in (res.forward_intervals, res.backward_intervals):
            assert intervals[0].start_ms == 0.0
            assert intervals[-1].end_ms == duration
            for prev, nxt in zip(intervals, intervals[1:]):
                assert prev.end_ms == nxt.start_ms

    def test_probe_budget_respected(self, scenario, overlay):
        caller, callee = pick_pair(scenario)
        config = SkypeConfig(max_probes=10, max_background_probes=2)
        res = run_skype_session(
            scenario, caller, callee, overlay, config=config, session_id=2
        )
        assert len(res.forward_probes) <= 12
        assert len(res.backward_probes) <= 12

    def test_switches_only_improve(self, scenario, overlay):
        # With noiseless probes, every switch strictly improves the
        # true path RTT (noisy probes may keep believed-better paths).
        caller, callee = pick_pair(scenario)
        res = run_skype_session(
            scenario,
            caller,
            callee,
            overlay,
            config=SkypeConfig(probe_noise_sigma=0.0),
            session_id=4,
        )
        model = scenario.latency
        a = scenario.population.by_ip(caller)
        b = scenario.population.by_ip(callee)

        def path_rtt(interval):
            if interval.relay_ip is None:
                return model.host_rtt_ms(a, b)
            relay = scenario.population.by_ip(interval.relay_ip)
            return model.one_hop_relay_rtt_ms(a, relay, b)

        rtts = [path_rtt(iv) for iv in res.forward_intervals]
        for earlier, later in zip(rtts, rtts[1:]):
            assert later < earlier

    def test_voice_packets_point_at_carrier(self, scenario, overlay):
        caller, callee = pick_pair(scenario)
        res = run_skype_session(scenario, caller, callee, overlay, session_id=5)
        final_carrier = res.forward_intervals[-1].relay_ip or callee
        late_voice = [
            p
            for p in res.trace.packets_sent_by(caller)
            if p.size_bytes >= 100 and p.time_ms > res.forward_intervals[-1].start_ms
        ]
        assert late_voice
        assert all(p.dst_ip == final_carrier for p in late_voice)


class TestAnalyzerPrimitives:
    def _mk(self, times_dsts):
        return [
            PacketRecord(
                time_ms=t,
                src_ip=IPv4Address.from_string("10.0.0.1"),
                src_port=1,
                dst_ip=IPv4Address.from_string(dst),
                dst_port=1,
                size_bytes=160,
                kind="voice",
            )
            for t, dst in times_dsts
        ]

    def test_stabilization_zero_when_stable(self):
        major = IPv4Address.from_string("10.0.0.9")
        voice = self._mk([(0.0, "10.0.0.9"), (10.0, "10.0.0.9")])
        assert _stabilization_time(voice, major) == 0.0

    def test_stabilization_after_last_switch(self):
        major = IPv4Address.from_string("10.0.0.9")
        voice = self._mk(
            [(0.0, "10.0.0.5"), (10.0, "10.0.0.9"), (20.0, "10.0.0.5"), (30.0, "10.0.0.9")]
        )
        assert _stabilization_time(voice, major) == 30.0

    def test_carrier_switches(self):
        voice = self._mk(
            [(0.0, "10.0.0.5"), (1.0, "10.0.0.5"), (2.0, "10.0.0.9"), (3.0, "10.0.0.5")]
        )
        assert _carrier_switches(voice) == 2


class TestAnalyzerOnSimulatedSessions:
    def test_major_matches_ground_truth(self, scenario, overlay):
        # The major carrier is defined by voice-packet share (as in the
        # paper), i.e. the carrier of the longest total interval time.
        caller, callee = pick_pair(scenario)
        res = run_skype_session(scenario, caller, callee, overlay, session_id=6)
        analyzer = TraceAnalyzer(scenario.prefix_table)
        analysis = analyzer.analyze(res.trace)

        def dominant(intervals):
            totals = {}
            for iv in intervals:
                totals[iv.relay_ip] = totals.get(iv.relay_ip, 0.0) + (
                    iv.end_ms - iv.start_ms
                )
            return max(totals.items(), key=lambda kv: kv[1])[0]

        assert analysis.forward.major_carrier == dominant(res.forward_intervals)
        assert analysis.backward.major_carrier == dominant(res.backward_intervals)

    def test_major_share_dominates(self, scenario, overlay):
        caller, callee = pick_pair(scenario)
        res = run_skype_session(scenario, caller, callee, overlay, session_id=6)
        analysis = TraceAnalyzer(scenario.prefix_table).analyze(res.trace)
        assert analysis.forward.major_share > 0.5

    def test_probed_counts_match_simulation(self, scenario, overlay):
        caller, callee = pick_pair(scenario)
        res = run_skype_session(scenario, caller, callee, overlay, session_id=7)
        analysis = TraceAnalyzer(scenario.prefix_table).analyze(res.trace)
        assert analysis.forward.total_probed == len(
            {ip for _, ip in res.forward_probes}
        )

    def test_same_as_groups_are_real(self, scenario, overlay):
        caller, callee = pick_pair(scenario)
        res = run_skype_session(scenario, caller, callee, overlay, session_id=8)
        analysis = TraceAnalyzer(scenario.prefix_table).analyze(res.trace)
        for asn, ips in analysis.same_as_probes.items():
            assert len(ips) > 1
            for ip in ips:
                assert scenario.prefix_table.origin_of(ip) == asn

    def test_time_series_estimates(self, scenario, overlay):
        caller, callee = pick_pair(scenario)
        res = run_skype_session(scenario, caller, callee, overlay, session_id=9)
        analyzer = TraceAnalyzer(
            scenario.prefix_table,
            king=KingEstimator(scenario.latency, seed=1, non_response_rate=0.0),
            population=scenario.population,
        )
        series = analyzer.relay_time_series(res.trace, caller, callee)
        assert len(series) == len(res.forward_probes)
        estimated = [e for _, _, e in series if e is not None]
        assert estimated
        assert all(e > 40.0 for e in estimated)  # includes relay delay

    def test_time_series_requires_king(self, scenario, overlay):
        caller, callee = pick_pair(scenario)
        res = run_skype_session(scenario, caller, callee, overlay, session_id=9)
        with pytest.raises(ValueError):
            TraceAnalyzer(scenario.prefix_table).relay_time_series(
                res.trace, caller, callee
            )


class TestRelayMidCallFailure:
    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            SkypeConfig(relay_mean_lifetime_ms=0.0)

    def _run(self, scenario, overlay, lifetime):
        caller, callee = pick_pair(scenario)
        config = SkypeConfig(
            relay_mean_lifetime_ms=lifetime,
            target_rtt_ms=10**9,  # never satisfied: keeps machine probing
            max_probes=16,
        )
        return run_skype_session(
            scenario, caller, callee, overlay,
            config=config, duration_ms=200_000.0, session_id=21,
        )

    def test_dying_relays_force_fallback(self, scenario, overlay):
        res = self._run(scenario, overlay, lifetime=5_000.0)
        # After a relay interval, a direct (None) fallback interval must
        # appear somewhere — unless no relay was ever adopted.
        kinds = [iv.relay_ip for iv in res.forward_intervals]
        relay_positions = [i for i, k in enumerate(kinds) if k is not None]
        if not relay_positions:
            pytest.skip("no relay adopted in this run")
        first_relay = relay_positions[0]
        assert any(k is None for k in kinds[first_relay + 1:]) or len(kinds) > first_relay + 1

    def test_dead_relay_never_readopted(self, scenario, overlay):
        res = self._run(scenario, overlay, lifetime=3_000.0)
        kinds = [iv.relay_ip for iv in res.forward_intervals]
        # A relay that died (followed later by a direct interval) must
        # not carry again afterwards.
        for i, ip in enumerate(kinds):
            if ip is None:
                continue
            ended_by_death = (
                i + 1 < len(kinds) and kinds[i + 1] is None
            )
            if ended_by_death:
                assert ip not in kinds[i + 1:]

    def test_no_lifetime_means_no_fallback_intervals(self, scenario, overlay):
        caller, callee = pick_pair(scenario)
        config = SkypeConfig(relay_mean_lifetime_ms=None)
        res = run_skype_session(
            scenario, caller, callee, overlay,
            config=config, duration_ms=120_000.0, session_id=22,
        )
        kinds = [iv.relay_ip for iv in res.forward_intervals]
        # Once on a relay, the machine never falls back to direct when
        # relays are immortal (switches only go relay→relay).
        seen_relay = False
        for k in kinds:
            if k is not None:
                seen_relay = True
            elif seen_relay:
                pytest.fail("direct fallback without relay death")
