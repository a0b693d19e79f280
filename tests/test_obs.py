"""Tests for the run-wide observability layer (``repro.obs``).

Covers the four contracts the layer makes:

- the metrics registry (create-on-demand instruments, snapshots) and
  the module-level hooks, which count each matrix column exactly once;
- the run manifest round-trips through write/load and its hand-rolled
  validator catches malformed documents;
- observability is invisible to results: section 7 produces identical
  records with a run active and with none, and the relay-selection
  message counter equals the totals the runner reports.
"""

import json
import re

import pytest

from repro import obs
from repro.baselines import OPTMethod, RelayPolicy
from repro.evaluation.policies import ASAPPolicy, default_policies
from repro.evaluation.section7 import run_section7
from repro.measurement.matrix import compute_delegate_matrices
from repro.obs.registry import MetricsRegistry
from tests.oracles import counter_value, tiny_scenario


@pytest.fixture(scope="module")
def scenario():
    return tiny_scenario(seed=11)


@pytest.fixture(autouse=True)
def no_leaked_run():
    """Every test starts and ends with no active observability run."""
    if obs.active() is not None:
        obs.finish_run()
    yield
    if obs.active() is not None:
        obs.finish_run()


# -- registry ------------------------------------------------------------------


class TestRegistry:
    def test_counters_accumulate(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.counter("a").inc(4)
        assert counter_value(registry, "a") == 5
        assert counter_value(registry, "never-touched") == 0

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        registry.gauge("g").set(7.5)
        registry.histogram("h").observe(0.25)
        snap = registry.snapshot()
        assert snap["counters"] == {"c": 2}
        assert snap["gauges"] == {"g": 7.5}
        assert snap["histograms"]["h"]["count"] == 1
        assert snap["histograms"]["h"]["sum"] == 0.25
        assert json.dumps(snap)  # JSON-serializable


class TestHistogramQuantiles:
    def test_empty_histogram_has_no_quantiles(self):
        histogram = MetricsRegistry().histogram("h")
        assert histogram.quantile(0.5) is None

    def test_quantile_rejects_out_of_range(self):
        histogram = MetricsRegistry().histogram("h")
        histogram.observe(1.0)
        with pytest.raises(ValueError):
            histogram.quantile(1.5)
        with pytest.raises(ValueError):
            histogram.quantile(-0.1)

    def test_quantiles_ordered_and_bounded(self):
        histogram = MetricsRegistry().histogram("h")
        for value in range(1, 101):
            histogram.observe(float(value))
        p50, p95, p99 = (
            histogram.quantile(0.50),
            histogram.quantile(0.95),
            histogram.quantile(0.99),
        )
        assert histogram.min <= p50 <= p95 <= p99 <= histogram.max
        # Log2 buckets: the estimate is within one bucket of the truth.
        assert p50 == pytest.approx(50.0, rel=0.5)

    def test_single_value_quantiles_collapse(self):
        histogram = MetricsRegistry().histogram("h")
        histogram.observe(3.0)
        for q in (0.0, 0.5, 0.99, 1.0):
            assert histogram.quantile(q) == pytest.approx(3.0)

    def test_snapshot_carries_quantiles(self):
        registry = MetricsRegistry()
        for value in (0.1, 0.2, 0.4):
            registry.histogram("h").observe(value)
        entry = registry.snapshot()["histograms"]["h"]
        for key in ("count", "sum", "min", "max", "p50", "p95", "p99", "buckets"):
            assert key in entry
        assert entry["p50"] <= entry["p95"] <= entry["p99"]


# -- module-level hooks --------------------------------------------------------


class TestHooks:
    def test_disabled_hooks_are_shared_noops(self):
        assert obs.active() is None
        assert obs.counter("x") is obs.counter("y")
        obs.counter("x").inc()  # goes nowhere, raises nothing
        obs.gauge("x").set(1.0)
        obs.histogram("x").observe(1.0)
        with obs.span("x"):
            pass
        obs.annotate(seed=3)

    def test_nested_runs_are_rejected(self):
        with obs.observe():
            with pytest.raises(RuntimeError):
                obs.start_run()

    def test_counters_reach_the_active_run(self):
        with obs.observe() as run:
            obs.counter("hit").inc(2)
            assert counter_value(run.registry, "hit") == 2
        assert obs.active() is None

    def test_matrix_fill_counts_each_column_once(self, scenario):
        with obs.observe() as run:
            matrices = compute_delegate_matrices(scenario.latency, scenario.clusters)
            assert counter_value(run.registry, "matrix.columns") == matrices.count


# -- manifest, spans and the run directory -------------------------------------


class TestEventsAndManifest:
    def test_manifest_round_trip(self, tmp_path):
        with obs.observe(obs_dir=tmp_path, command="unit", argv=["--flag"]) as run:
            obs.annotate(seed=3, scale="tiny", config_key="abc")
            obs.annotate(custom="kept")
            obs.counter("cache.scenario.hits").inc()
        manifest = obs.load_manifest(tmp_path / obs.MANIFEST_FILENAME)
        assert obs.validate_manifest(manifest) == []
        assert manifest["command"] == "unit"
        assert manifest["argv"] == ["--flag"]
        assert manifest["seed"] == 3
        assert manifest["scale"] == "tiny"
        assert manifest["config_key"] == "abc"
        assert "workers" not in manifest and "parallel" not in manifest
        assert manifest["cache"]["scenario_hits"] == 1
        assert manifest["counters"]["cache.scenario.hits"] == 1
        assert manifest["annotations"] == {"custom": "kept"}
        assert manifest["run_id"] == run.run_id

    def test_validator_rejects_malformed_documents(self, tmp_path):
        with obs.observe(obs_dir=tmp_path):
            pass
        document = obs.load_manifest(tmp_path / obs.MANIFEST_FILENAME)
        assert obs.validate_manifest(document) == []
        missing = dict(document)
        del missing["run_id"]
        assert any("run_id" in p for p in obs.validate_manifest(missing))
        wrong_type = dict(document, wall_seconds="fast")
        assert any("wall_seconds" in p for p in obs.validate_manifest(wrong_type))
        unknown = dict(document, extra=1)
        assert any("extra" in p for p in obs.validate_manifest(unknown))
        stale = dict(document, schema=99)
        assert any("schema" in p for p in obs.validate_manifest(stale))
        bad_cache = dict(document, cache={})
        assert any("cache." in p for p in obs.validate_manifest(bad_cache))

    def test_span_durations_land_in_histograms(self):
        with obs.observe() as run:
            with obs.span("unit.block"):
                pass
            assert run.registry.histogram("span.unit.block").count == 1

    @pytest.mark.parametrize("traced", [False, True])
    def test_obs_dir_holds_the_manifest_and_telemetry_plus_traces(self, tmp_path, traced):
        from repro.cli import main

        argv = ["call", "--scale", "tiny", "--obs-dir", str(tmp_path)]
        expected = {obs.MANIFEST_FILENAME, obs.TELEMETRY_FILENAME}
        if traced:
            argv.append("--trace")
            expected.add(obs.TRACES_FILENAME)
        assert main(argv) == 0
        assert {path.name for path in tmp_path.iterdir()} == expected

    def test_section7_command_counts_the_messages_it_prints(self, tmp_path, capsys):
        from repro.cli import main

        rc = main(["section7", "--scale", "tiny", "--sessions", "400", "--latent", "10",
                   "--obs-dir", str(tmp_path)])
        assert rc == 0
        printed = re.search(
            r"ASAP relay-selection messages \(total\): (\d+)", capsys.readouterr().out
        )
        manifest = obs.load_manifest(tmp_path / obs.MANIFEST_FILENAME)
        assert manifest["counters"]["asap.select.messages"] == int(printed.group(1))

# -- policies satisfy the protocol ---------------------------------------------


class TestRelayPolicyProtocol:
    def test_baselines_and_adapter_satisfy_protocol(self, scenario):
        policies = default_policies(scenario, methods=("RAND", "ASAP", "OPT"))
        assert [p.name for p in policies] == ["RAND", "ASAP", "OPT"]
        for policy in policies:
            assert isinstance(policy, RelayPolicy)
        assert isinstance(policies[1], ASAPPolicy)

    def test_opt_reports_no_one_hop_split(self, scenario):
        result = OPTMethod().evaluate_sessions(scenario.matrices, [(0, 1)])[0]
        assert result.one_hop_quality_paths is None


# -- observability never changes results ---------------------------------------


class TestResultsUnchanged:
    def test_section7_identical_with_and_without_obs(self, scenario):
        kwargs = dict(session_count=400, latent_target=10, max_latent_sessions=10)
        bare = run_section7(scenario, **kwargs)
        with obs.observe() as run:
            observed = run_section7(scenario, **kwargs)
        assert set(bare.records) == set(observed.records)
        for method, records in bare.records.items():
            assert records == observed.records[method]
        # The acceptance contract: the relay-selection message counter
        # equals the ASAPSession.messages totals the runner reports.
        asap_messages = sum(r.messages for r in observed.records["ASAP"])
        assert counter_value(run.registry, "asap.select.messages") == asap_messages
