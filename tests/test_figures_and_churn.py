"""Tests for figure-data export and runtime churn (surrogate failures)."""

import csv

import pytest

from repro.cli import main
from repro.core import ASAPConfig
from repro.core.runtime import ASAPRuntime
from repro.evaluation.figures import export_all, export_section3, export_section7
from tests.oracles import tiny_scenario


@pytest.fixture(scope="module")
def scenario():
    return tiny_scenario(seed=11)


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


class TestFigureExport:
    def test_export_all_writes_every_figure(self, tmp_path, scenario):
        written = export_all(
            scenario, tmp_path, session_count=300, latent_target=8, seed=1
        )
        expected = {"fig02.csv", "fig03.csv", "fig07.csv", "fig12.csv",
                    "fig14.csv", "fig16.csv", "fig18.csv"}
        assert set(written) == expected
        for name in expected:
            assert (tmp_path / name).exists()
            assert written[name] > 0

    def test_fig02_rows_are_cdf(self, tmp_path, scenario):
        export_section3(scenario, tmp_path, session_count=300, seed=1)
        rows = read_rows(tmp_path / "fig02.csv")
        direct = [r for r in rows if r["series"] == "direct_rtt_cdf"]
        ys = [float(r["y"]) for r in direct]
        xs = [float(r["x"]) for r in direct]
        assert ys == sorted(ys)
        assert xs == sorted(xs)
        assert 0.0 < ys[0] <= ys[-1] <= 1.0

    def test_fig12_covers_all_methods(self, tmp_path, scenario):
        export_section7(
            scenario, tmp_path, session_count=300, latent_target=8, seed=1
        )
        rows = read_rows(tmp_path / "fig12.csv")
        methods = {r["series"] for r in rows}
        assert {"DEDI", "RAND", "MIX", "ASAP", "OPT"} <= methods

    def test_cli_figures_command(self, tmp_path, capsys):
        rc = main([
            "figures", "--scale", "tiny", "--seed", "11",
            "--sessions", "300", "--latent", "6",
            "--output", str(tmp_path / "figs"),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "figure data files" in out
        assert (tmp_path / "figs" / "fig12.csv").exists()


class TestRuntimeChurn:
    def test_surrogate_failure_promotes_and_records(self, scenario):
        runtime = ASAPRuntime(scenario, ASAPConfig())
        big = max(scenario.clusters.all_clusters(), key=len)
        if len(big) < 2:
            pytest.skip("no multi-host cluster")
        idx = scenario.matrices.index_of[big.prefix]
        before = runtime.system.surrogate(idx).ip
        runtime.sim.schedule_at(50.0, lambda: runtime.fail_host(before))
        runtime.run()
        assert len(runtime.surrogate_failures) == 1
        time_ms, cluster, new_ip = runtime.surrogate_failures[0]
        assert time_ms == 50.0
        assert cluster == idx
        assert new_ip != before
        assert runtime.system.surrogate(idx).ip == new_ip

    def test_single_host_cluster_failure_noop(self, scenario):
        runtime = ASAPRuntime(scenario, ASAPConfig())
        single = next(
            (c for c in scenario.clusters.all_clusters() if len(c) == 1), None
        )
        if single is None:
            pytest.skip("no single-host cluster")
        idx = scenario.matrices.index_of[single.prefix]
        ip = single.hosts[0].ip
        runtime.sim.schedule_at(10.0, lambda: runtime.fail_host(ip))
        runtime.run()
        assert runtime.surrogate_failures == []
        assert runtime.system.online_sizes[idx] == 0

    def test_calls_succeed_after_failover(self, scenario):
        import numpy as np

        runtime = ASAPRuntime(scenario, ASAPConfig(k_hops=5))
        m = scenario.matrices
        clusters = scenario.clusters.all_clusters()
        pair = None
        for a, b in np.argwhere(m.rtt_ms > 300):
            ca, cb = clusters[int(a)], clusters[int(b)]
            if len(ca) >= 2 and cb.hosts:
                pair = (int(a), ca, cb)
                break
        if pair is None:
            pytest.skip("no latent pair with multi-host caller cluster")
        idx, ca, cb = pair
        primary = runtime.system.surrogate(idx).ip
        runtime.sim.schedule_at(10.0, lambda: runtime.fail_host(primary))
        caller = next(h.ip for h in ca.hosts if h.ip != primary)
        record = runtime.schedule_call(caller, cb.hosts[0].ip, at_ms=100.0)
        runtime.run()
        assert [(t, c) for t, c, _ in runtime.surrogate_failures] == [(10.0, idx)]
        assert record.setup_ms is not None
        assert record.outcome in ("completed", "degraded")


class TestLeaveChurn:
    def test_leave_ordinary_member(self, scenario):
        from repro.core import ASAPSystem

        system = ASAPSystem(scenario, ASAPConfig())
        big = max(scenario.clusters.all_clusters(), key=len)
        idx = scenario.matrices.index_of[big.prefix]
        surrogate_ips = {m.ip for m in system.surrogate_group(idx)}
        ordinary = next(h for h in big.hosts if h.ip not in surrogate_ips)
        promoted = system.leave(ordinary.ip)
        assert promoted is None
        assert not system.is_online(ordinary.ip)
        # Surrogates untouched.
        assert {m.ip for m in system.surrogate_group(idx)} == surrogate_ips

    def test_leave_surrogate_promotes(self, scenario):
        from repro.core import ASAPSystem

        system = ASAPSystem(scenario, ASAPConfig())
        big = max(scenario.clusters.all_clusters(), key=len)
        if len(big) < 2:
            pytest.skip("no multi-host cluster")
        idx = scenario.matrices.index_of[big.prefix]
        old_primary = system.surrogate(idx)
        promoted = system.leave(old_primary.ip)
        assert promoted is not None
        assert promoted.ip != old_primary.ip
        assert system.surrogate(idx).ip == promoted.ip

    def test_leave_last_host_darkens_cluster(self, scenario):
        from repro.core import ASAPSystem

        system = ASAPSystem(scenario, ASAPConfig())
        single = next(
            (c for c in scenario.clusters.all_clusters() if len(c) == 1), None
        )
        if single is None:
            pytest.skip("no single-host cluster")
        idx = scenario.matrices.index_of[single.prefix]
        promoted = system.leave(single.hosts[0].ip)
        assert promoted is None
        # Stale surrogate entry remains until a member rejoins.
        assert system.surrogate(idx).ip == single.hosts[0].ip

    def test_rejoin_after_leave(self, scenario):
        from repro.core import ASAPSystem

        system = ASAPSystem(scenario, ASAPConfig())
        host = max(scenario.clusters.all_clusters(), key=len).hosts[1]
        system.leave(host.ip)
        assert not system.is_online(host.ip)
        system.join(host.ip)
        assert system.is_online(host.ip)

    def test_runtime_schedule_leave(self, scenario):
        from repro.core.runtime import ASAPRuntime

        runtime = ASAPRuntime(scenario, ASAPConfig())
        big = max(scenario.clusters.all_clusters(), key=len)
        if len(big) < 2:
            pytest.skip("no multi-host cluster")
        idx = scenario.matrices.index_of[big.prefix]
        primary_ip = runtime.system.surrogate(idx).ip
        runtime.schedule_leave(primary_ip, at_ms=25.0)
        runtime.run()
        assert len(runtime.surrogate_failures) == 1
        assert runtime.system.surrogate(idx).ip != primary_ip
