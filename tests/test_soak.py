"""The churn soak harness: determinism, gates, chaos equivalence."""

import dataclasses
import json

import pytest

from repro import obs
from repro.cli import main
from repro.control import ShardedDirectory
from repro.control.maintainer import CloseSetMaintainer
from repro.core.protocol import ASAPSystem
from repro.errors import ConfigurationError
from repro.evaluation.chaos import run_chaos
from repro.evaluation.soak import SoakConfig, default_shard_outage, run_soak
from repro.faults import ChurnWave, FaultScheduleConfig, ShardOutage
from repro.obs.manifest import MANIFEST_SCHEMA_VERSION, validate_manifest
from repro.obs.report import critical_path, load_run, series_by_subsystem, write_flame
from repro.obs.trace_analysis import build_trees
from repro.scenario import ScenarioConfig, build_scenario
from repro.worldarrays import FlatCloseSetBuilder
from tests.oracles import tiny_scenario

SOAK_SEED = 3


@pytest.fixture(scope="module")
def scenario():
    return tiny_scenario(seed=11)


def churn_config(minutes=20.0, **overrides) -> SoakConfig:
    base = SoakConfig(
        seed=SOAK_SEED,
        sim_minutes=minutes,
        shards=3,
        sessions=12,
        joins=12,
        media_duration_ms=4_000.0,
        churn_rate_per_min=2.0,
        churn_waves=(ChurnWave(at_ms=minutes * 60_000.0 / 3, fraction=0.2),),
        rejoin_delay_ms=20_000.0,
        maintenance_interval_ms=60_000.0,
        registry_ttl_ms=120_000.0,
    )
    config = dataclasses.replace(base, **overrides) if overrides else base
    return dataclasses.replace(
        config, shard_outages=(default_shard_outage(config, shard=0),)
    )


class TestSoakConfig:
    def test_ttl_must_exceed_maintenance_interval(self):
        with pytest.raises(ConfigurationError):
            SoakConfig(maintenance_interval_ms=100.0, registry_ttl_ms=100.0)

    def test_outage_must_end_before_run(self):
        with pytest.raises(ConfigurationError):
            SoakConfig(
                sim_minutes=1.0,
                shard_outages=(
                    ShardOutage(shard=0, start_ms=50_000.0, duration_ms=60_000.0),
                ),
            )

    def test_outage_shard_must_exist(self):
        with pytest.raises(ConfigurationError):
            SoakConfig(
                shards=2,
                shard_outages=(
                    ShardOutage(shard=5, start_ms=0.0, duration_ms=1_000.0),
                ),
            )

    def test_default_outage_leaves_recovery_time(self):
        config = SoakConfig(sim_minutes=10.0)
        outage = default_shard_outage(config)
        assert outage.start_ms + outage.duration_ms < config.duration_ms

    @pytest.mark.parametrize(
        "field, value",
        [
            ("sim_minutes", float("nan")),
            ("sim_minutes", float("inf")),
            ("shards", 2.5),
            ("sessions", -1),
            ("joins", -1),
            ("latent_target", -1),
            ("tracked_surrogates", -1),
            ("media_duration_ms", -1.0),
            ("churn_rate_per_min", -0.5),
            ("rejoin_delay_ms", float("nan")),
            ("maintenance_interval_ms", float("nan")),
            ("staleness_p95_max", float("nan")),
        ],
    )
    def test_rejects_out_of_range_fields(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            SoakConfig(**{field: value})


class TestChurnSoak:
    @pytest.fixture(scope="class")
    def report(self, scenario):
        return run_soak(scenario, churn_config())

    def test_all_gates_pass_through_a_shard_kill(self, report):
        assert report.registry_bounded, report.directory
        assert report.directory_converged, report.directory
        assert report.staleness_bounded, report.staleness
        assert report.calls_terminal
        assert report.ok

    def test_shard_outage_actually_happened(self, report):
        assert any('"kind":"shard-down"' in line for line in report.directory_log)
        assert any('"kind":"shard-up"' in line for line in report.directory_log)
        assert report.directory["failover_joins"] > 0

    def test_registry_steady_state(self, report):
        assert report.directory["end_total"] == report.alive_end
        assert report.directory["peak_total"] <= 2 * report.hosts

    def test_maintainer_repaired_under_churn(self, report):
        assert report.maintainer["events_seen"] > 0
        assert report.maintainer["local_repairs"] + report.maintainer["rebuilds"] > 0

    def test_same_seed_is_byte_identical(self, scenario, report):
        again = run_soak(scenario, churn_config())
        assert again.to_json() == report.to_json()
        assert again.log_lines() == report.log_lines()

    def test_manifest_block_satisfies_schema_v5(self, report):
        # The soak block joined the manifest in v4/v5 and is unchanged since.
        document = {
            "schema": MANIFEST_SCHEMA_VERSION,
            "run_id": "t",
            "command": "soak",
            "argv": [],
            "started_at": "now",
            "wall_seconds": 0.0,
            "seed": report.seed,
            "scale": "tiny",
            "config_key": None,
            "soak": report.manifest_block(),
            "cache": {
                "scenario_hits": 0,
                "scenario_misses": 0,
            },
            "counters": {},
            "gauges": {},
            "histograms": {},
            "traces_file": None,
            "traces_written": 0,
        }
        assert validate_manifest(document) == []
        document["soak"] = {"ok": True}  # gate verdicts missing
        assert any("soak missing field" in p for p in validate_manifest(document))


class TestZeroChurnEquivalence:
    def test_zero_fault_soak_reproduces_static_chaos(self, scenario):
        config = SoakConfig(
            seed=SOAK_SEED,
            sim_minutes=5.0,
            sessions=10,
            joins=10,
            media_duration_ms=4_000.0,
        )
        report = run_soak(scenario, config)
        static = run_chaos(
            scenario,
            FaultScheduleConfig(seed=SOAK_SEED, duration_ms=config.duration_ms),
            sessions=10,
            joins=10,
            media_duration_ms=4_000.0,
            seed=SOAK_SEED,
        )
        # Same seeded workload stream, no faults: the soak's outcome
        # record is byte-identical to the static chaos run's.
        assert report.workload == static.to_dict()
        assert report.ok
        assert report.maintainer["events_seen"] == 0


class TestSoakCommand:
    """``repro soak --scale tiny --seed 3`` through a shard kill, traced:
    the manifest carries every gate and a telemetry block that matches
    its file, each cluster's ring chain is walked at most once (thousands
    means once per directory operation), and the run renders per
    subsystem with a critical path and a flamegraph."""

    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("soak")
        code = main([
            "soak", "--scale", "tiny", "--seed", "3", "--minutes", "20", "--churn-rate", "2",
            "--kill-shard", "0", "--trace", "--obs-dir", str(out), "--json", str(out / "r.json"),
        ])
        assert code == 0
        return out, obs.load_manifest(out / obs.MANIFEST_FILENAME)

    def test_manifest_carries_the_gates_and_ring_chains_stay_per_cluster(self, run):
        out, manifest = run
        assert manifest["schema"] == MANIFEST_SCHEMA_VERSION
        soak = manifest["soak"]
        for gate in ("registry_bounded", "directory_converged", "staleness_bounded",
                     "calls_terminal", "ok"):
            assert soak[gate] is True, gate
        assert json.loads((out / "r.json").read_text())["ok"] is True
        assert soak["directory"]["end_total"] == soak["alive_end"]
        clusters = len(tiny_scenario(seed=3).clusters.all_clusters())
        assert 0 < manifest["counters"]["control.ring.chains"] <= clusters

    def test_telemetry_block_matches_the_file(self, run):
        out, manifest = run
        block = manifest["telemetry"]
        records = obs.load_telemetry_file(out / obs.TELEMETRY_FILENAME)
        samples = [r for r in records if r["kind"] == "sample"]
        assert block["file"] == obs.TELEMETRY_FILENAME
        assert block["samples"] == len(samples)
        assert block["series"] == len({r["series"] for r in samples})
        assert not any(r.get("wall") for r in samples)  # the simulated clock only

    def test_report_renders_three_subsystems_and_a_critical_path(self, run):
        out, _ = run
        artifacts = load_run(out)
        assert {"control", "net", "runtime"} <= set(series_by_subsystem(artifacts.telemetry))
        trees = build_trees(artifacts.traces)
        longest = max(trees.values(), key=lambda t: t.root.duration_ms if t.root else 0.0)
        assert critical_path(longest)
        path, _ = write_flame(artifacts, out / "flame.json")
        flame = json.loads(path.read_text())
        assert flame["name"] == "run" and flame["children"]


class TestBatchedCloseSets:
    """A ``small`` soak serves every surrogate's set out of multi-source
    sweeps over clusters the run named; the maintainer starts tracking
    in one masked sweep, and one-source builds are its repairs alone."""

    def test_served_sets_come_from_sweeps_over_named_clusters(self, monkeypatch):
        scenario = build_scenario(ScenarioConfig.preset("small", 3))
        config = SoakConfig(seed=3, sim_minutes=20.0, churn_rate_per_min=2.0)
        config = dataclasses.replace(
            config, shard_outages=(default_shard_outage(config, shard=0),)
        )
        singles, sweeps, named, tracked = [], [], set(), []
        build = FlatCloseSetBuilder.build
        build_many = FlatCloseSetBuilder.build_many
        track_many = CloseSetMaintainer.track_many
        want = ASAPSystem.want

        def spy_build(self, own_cluster, own_as, meta_out=None, online=None):
            singles.append(online)
            return build(self, own_cluster, own_as, meta_out, online)

        def spy_build_many(self, sources, online=None, meta_out=None):
            sources = list(sources)
            sweeps.append(([cluster for cluster, _ in sources], online))
            return build_many(self, sources, online, meta_out)

        def spy_track_many(self, owners):
            tracked.append(list(owners))
            return track_many(self, owners)

        def spy_want(self, clusters):
            clusters = list(clusters)
            named.update(clusters)
            want(self, clusters)

        monkeypatch.setattr(FlatCloseSetBuilder, "build", spy_build)
        monkeypatch.setattr(FlatCloseSetBuilder, "build_many", spy_build_many)
        monkeypatch.setattr(CloseSetMaintainer, "track_many", spy_track_many)
        monkeypatch.setattr(ASAPSystem, "want", spy_want)
        report = run_soak(scenario, config)

        assert report.ok
        assert all(online is not None for online in singles)
        # The maintainer's tracked owners: one masked sweep, the only one.
        masked = [clusters for clusters, online in sweeps if online is not None]
        assert len(tracked) == 1 and len(tracked[0]) == config.tracked_surrogates
        assert masked == tracked
        served = [clusters for clusters, online in sweeps if online is None]
        assert max(len(clusters) for clusters in served) > 1
        # Sweeps are the only thing that fills the computed table.
        assert {c for clusters in served for c in clusters} <= named


class TestBulkLeaseRefresh:
    """The soak renews leases a pass at a time: ``refresh_many`` at t = 0
    and on every maintenance tick.  The scalar ``join`` is a rejoin's
    alone, so a ``small`` soak makes at most one per host-leave event,
    never one per host per tick."""

    def test_scalar_joins_are_rejoins_only(self, monkeypatch):
        scenario = build_scenario(ScenarioConfig.preset("small", 0))
        config = SoakConfig(
            seed=0, sim_minutes=30.0, sessions=40, joins=10, churn_rate_per_min=5.0
        )
        config = dataclasses.replace(
            config, shard_outages=(default_shard_outage(config, shard=1),)
        )
        scalar, passes = [], []
        join = ShardedDirectory.join
        refresh_many = ShardedDirectory.refresh_many

        def spy_join(self, ip, at_ms, addr=""):
            scalar.append(ip)
            return join(self, ip, at_ms, addr)

        def spy_refresh_many(self, ips, at_ms):
            passes.append(len(ips))
            return refresh_many(self, ips, at_ms)

        monkeypatch.setattr(ShardedDirectory, "join", spy_join)
        monkeypatch.setattr(ShardedDirectory, "refresh_many", spy_refresh_many)
        report = run_soak(scenario, config)

        assert report.ok
        assert report.directory["failover_joins"] > 0  # the outage was refreshed through
        ticks = int(config.duration_ms // config.maintenance_interval_ms)
        assert len(passes) == ticks + 1 and passes[0] == report.hosts
        assert 0 < len(scalar) <= report.directory["leaves"]
        assert report.directory["joins"] == sum(passes) + len(scalar)
