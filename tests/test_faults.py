"""Tests for the fault-injection layer: configs, schedules, network faults."""

import pytest

from repro.core import ASAPConfig
from repro.core.runtime import ASAPRuntime
from repro.errors import ConfigurationError
from repro.faults import (
    BootstrapOutage,
    ChurnWave,
    FaultInjector,
    FaultScheduleConfig,
    LossBurst,
    compile_schedule,
)
from repro.scenario import tiny_scenario
from repro.sim.engine import Simulator
from repro.sim.network import SimNetwork


@pytest.fixture(scope="module")
def scenario():
    return tiny_scenario(seed=11)


class TestFaultConfig:
    def test_defaults_are_zero(self):
        assert FaultScheduleConfig().is_zero

    def test_nonzero_detection(self):
        assert not FaultScheduleConfig(host_churn_rate_per_min=1.0).is_zero
        assert not FaultScheduleConfig(message_loss_rate=0.1).is_zero
        assert not FaultScheduleConfig(
            churn_waves=(ChurnWave(at_ms=10.0, fraction=0.5),)
        ).is_zero

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FaultScheduleConfig(duration_ms=0)
        with pytest.raises(ConfigurationError):
            FaultScheduleConfig(surrogate_crash_rate_per_min=-1)
        with pytest.raises(ConfigurationError):
            FaultScheduleConfig(message_loss_rate=1.0)
        with pytest.raises(ConfigurationError):
            ChurnWave(at_ms=0.0, fraction=0.0)
        with pytest.raises(ConfigurationError):
            LossBurst(start_ms=0.0, duration_ms=0.0, loss_rate=0.5)
        with pytest.raises(ConfigurationError):
            BootstrapOutage(index=-1, start_ms=0.0, duration_ms=1.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("seed", -1),
            ("seed", 1.5),
            ("duration_ms", float("nan")),
            ("duration_ms", float("inf")),
            ("surrogate_crash_rate_per_min", float("nan")),
            ("surrogate_crash_rate_per_min", float("inf")),
            ("host_churn_rate_per_min", float("nan")),
            ("host_churn_rate_per_min", float("inf")),
            ("random_as_outages", 2.5),
            ("as_outage_duration_ms", float("nan")),
            ("as_outage_duration_ms", float("inf")),
        ],
    )
    def test_rejects_non_finite_or_non_integer(self, field, value):
        with pytest.raises(ConfigurationError):
            FaultScheduleConfig(**{field: value})

    def test_scaled(self):
        config = FaultScheduleConfig(
            surrogate_crash_rate_per_min=2.0,
            host_churn_rate_per_min=4.0,
            message_loss_rate=0.01,
        )
        doubled = config.scaled(2.0)
        assert doubled.surrogate_crash_rate_per_min == 4.0
        assert doubled.host_churn_rate_per_min == 8.0
        assert doubled.message_loss_rate == 0.02
        assert config.scaled(0.0).is_zero


class TestCompileSchedule:
    def test_zero_config_compiles_empty(self, scenario):
        schedule = compile_schedule(FaultScheduleConfig(), scenario)
        assert len(schedule) == 0

    def test_deterministic(self, scenario):
        config = FaultScheduleConfig(
            seed=7,
            duration_ms=20_000,
            surrogate_crash_rate_per_min=6.0,
            host_churn_rate_per_min=30.0,
            random_as_outages=2,
            message_loss_rate=0.01,
        )
        a = compile_schedule(config, scenario)
        b = compile_schedule(config, scenario)
        assert a.lines() == b.lines()
        assert len(a) > 0

    def test_seed_changes_schedule(self, scenario):
        base = dict(duration_ms=20_000, host_churn_rate_per_min=30.0)
        a = compile_schedule(FaultScheduleConfig(seed=1, **base), scenario)
        b = compile_schedule(FaultScheduleConfig(seed=2, **base), scenario)
        assert a.lines() != b.lines()

    def test_events_sorted_and_paired(self, scenario):
        config = FaultScheduleConfig(
            bootstrap_outages=(BootstrapOutage(index=0, start_ms=100.0, duration_ms=500.0),),
            loss_bursts=(LossBurst(start_ms=50.0, duration_ms=200.0, loss_rate=0.3),),
        )
        schedule = compile_schedule(config, scenario)
        times = [e.at_ms for e in schedule.events]
        assert times == sorted(times)
        kinds = [e.kind for e in schedule.events]
        assert kinds.count("bootstrap-down") == kinds.count("bootstrap-up") == 1
        assert kinds.count("loss-burst-start") == kinds.count("loss-burst-end") == 1

    def test_churn_wave_picks_fraction(self, scenario):
        config = FaultScheduleConfig(churn_waves=(ChurnWave(at_ms=10.0, fraction=0.25),))
        schedule = compile_schedule(config, scenario)
        leaves = [e for e in schedule.events if e.kind == "host-leave"]
        expected = max(1, round(0.25 * len(scenario.population.hosts)))
        assert len(leaves) == expected
        assert all(e.at_ms == 10.0 for e in leaves)


class TestNetworkFaults:
    def _pair(self, scenario):
        hosts = scenario.population.hosts
        for a in hosts:
            for b in hosts:
                if a.ip != b.ip and scenario.latency.host_rtt_ms(a, b) is not None:
                    return a, b
        pytest.skip("no reachable host pair")

    def _net(self, scenario):
        sim = Simulator()
        net = SimNetwork(sim, scenario.latency)
        return sim, net

    def test_down_host_drops(self, scenario):
        a, b = self._pair(scenario)
        sim, net = self._net(scenario)
        net.register(a, lambda m: None)
        net.register(b, lambda m: None)
        net.set_host_down(b.ip)
        assert not net.send(a, b.ip, "ping")
        assert net.dropped_by_reason["host-down"] == 1
        net.set_host_up(b.ip)
        assert net.send(a, b.ip, "ping")

    def test_down_as_drops_both_directions(self, scenario):
        a, b = self._pair(scenario)
        sim, net = self._net(scenario)
        net.register(a, lambda m: None)
        net.register(b, lambda m: None)
        net.set_as_down(b.asn)
        assert not net.send(a, b.ip, "ping")
        assert not net.send(b, a.ip, "ping")
        assert net.dropped_by_reason["as-down"] == 2
        net.set_as_up(b.asn)
        assert net.send(a, b.ip, "ping")

    def test_request_response_timing(self, scenario):
        a, b = self._pair(scenario)
        sim, net = self._net(scenario)
        net.register(a, lambda m: None)
        net.register(b, lambda m: None)
        rtt = scenario.latency.host_rtt_ms(a, b)
        seen = []
        ok = net.request(
            a, b.ip, "ping", timeout_ms=10_000,
            on_response=lambda: seen.append(sim.now_ms),
        )
        assert ok
        sim.run()
        assert seen == [pytest.approx(rtt)]
        assert net.total_timeouts == 0

    def test_request_timeout_on_down_host(self, scenario):
        a, b = self._pair(scenario)
        sim, net = self._net(scenario)
        net.register(a, lambda m: None)
        net.register(b, lambda m: None)
        net.set_host_down(b.ip)
        fired = []
        ok = net.request(
            a, b.ip, "ping", timeout_ms=500.0,
            on_response=lambda: fired.append("response"),
            on_timeout=lambda: fired.append(sim.now_ms),
        )
        assert not ok
        sim.run()
        assert fired == [500.0]
        assert net.timeouts_by_category["ping"] == 1
        assert net.total_timeouts == 1

    def test_loss_burst_full_rate_drops_everything(self, scenario):
        a, b = self._pair(scenario)
        sim, net = self._net(scenario)
        net.register(a, lambda m: None)
        net.register(b, lambda m: None)
        net.push_loss(1.0)
        assert not net.send(a, b.ip, "ping")
        assert net.dropped_by_reason["loss"] == 1
        net.pop_loss(1.0)
        assert net.send(a, b.ip, "ping")

    def test_loss_sampling_is_seeded(self, scenario):
        a, b = self._pair(scenario)
        outcomes = []
        for _ in range(2):
            sim, net = self._net(scenario)
            net.register(a, lambda m: None)
            net.register(b, lambda m: None)
            net.reseed_loss(42)
            net.set_background_loss(0.5)
            outcomes.append([net.send(a, b.ip, "ping") for _ in range(50)])
        assert outcomes[0] == outcomes[1]
        assert False in outcomes[0] and True in outcomes[0]

    def test_as_scoped_loss_only_hits_that_as(self, scenario):
        hosts = scenario.population.hosts
        a = hosts[0]
        b = next((h for h in hosts if h.asn != a.asn), None)
        if b is None:
            pytest.skip("single-AS population")
        sim, net = self._net(scenario)
        net.push_loss(1.0, asn=b.asn)
        assert net.loss_rate_between(a, b) == 1.0
        other = next(
            (h for h in hosts if h.asn not in (a.asn, b.asn)), None
        )
        if other is not None:
            assert net.loss_rate_between(a, other) == 0.0


class TestInjector:
    def test_injector_log_is_deterministic(self, scenario):
        config = FaultScheduleConfig(
            seed=5,
            duration_ms=10_000,
            host_churn_rate_per_min=60.0,
            bootstrap_outages=(BootstrapOutage(index=0, start_ms=10.0, duration_ms=100.0),),
        )
        logs = []
        for _ in range(2):
            runtime = ASAPRuntime(scenario, ASAPConfig())
            schedule = compile_schedule(config, scenario)
            injector = FaultInjector(runtime, schedule)
            installed = injector.install()
            assert installed == len(schedule)
            runtime.run()
            logs.append(injector.log_lines())
        assert logs[0] == logs[1]
        assert len(logs[0]) == installed

    def test_bootstrap_outage_takes_host_down_and_up(self, scenario):
        runtime = ASAPRuntime(scenario, ASAPConfig())
        config = FaultScheduleConfig(
            bootstrap_outages=(BootstrapOutage(index=0, start_ms=10.0, duration_ms=100.0),),
        )
        injector = FaultInjector(runtime, compile_schedule(config, scenario))
        injector.install()
        ip = runtime.bootstrap_hosts[0].ip
        runtime.run(until_ms=50.0)
        assert ip in runtime.network._down_hosts
        runtime.run()
        assert ip not in runtime.network._down_hosts

    def test_double_install_rejected(self, scenario):
        runtime = ASAPRuntime(scenario, ASAPConfig())
        injector = FaultInjector(
            runtime, compile_schedule(FaultScheduleConfig(), scenario)
        )
        injector.install()
        with pytest.raises(RuntimeError):
            injector.install()

    def test_surrogate_crash_promotes(self, scenario):
        big = max(scenario.clusters.all_clusters(), key=len)
        if len(big) < 2:
            pytest.skip("no multi-host cluster")
        runtime = ASAPRuntime(scenario, ASAPConfig())
        idx = scenario.matrices.index_of[big.prefix]
        before = runtime.system.surrogate(idx).ip
        from repro.faults.schedule import FaultEvent, FaultSchedule

        schedule = FaultSchedule(
            seed=0,
            duration_ms=1_000.0,
            events=(
                FaultEvent(at_ms=5.0, kind="surrogate-crash", target=f"cluster:{idx}"),
            ),
        )
        injector = FaultInjector(runtime, schedule)
        injector.install()
        runtime.run()
        after = runtime.system.surrogate(idx).ip
        assert after != before
        assert before in runtime.network._down_hosts
        assert injector.log[0].outcome == "applied"
