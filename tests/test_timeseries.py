"""Tests for the deterministic time-series telemetry layer.

The contract under test (see ``repro/obs/timeseries.py``):

- sample buffers sort deterministically and write canonical JSONL, so
  identical sample streams produce byte-identical ``telemetry.jsonl``;
- histogram raw-sample retention is bounded by a deterministic
  reservoir, surfaced as the ``telemetry.samples_dropped`` counter;
- trace context carried over the wire (two tracers, two files) merges
  into one connected causal tree;
- ``repro report`` renders timelines, a self-time profile and a
  critical path from a run directory.
"""

import json

import pytest

from repro import obs
from repro.errors import ArtifactError
from repro.obs.manifest import load_manifest, validate_manifest
from repro.obs.registry import RESERVOIR_SIZE, MetricsRegistry
from repro.obs.report import (
    critical_path,
    flame_document,
    load_run,
    render_report,
    self_time_profile,
    series_by_subsystem,
    sparkline,
    write_flame,
)
from repro.obs.timeseries import (
    DEFAULT_CADENCE_MS,
    NULL_TIMELINE,
    TELEMETRY_FILENAME,
    TELEMETRY_SCHEMA_VERSION,
    TimeSeries,
    load_telemetry_file,
    validate_telemetry_records,
)
from repro.obs.trace import Tracer, load_trace_files
from repro.obs.trace_analysis import build_trees


@pytest.fixture(autouse=True)
def no_leaked_run():
    yield
    if obs.enabled():
        obs.finish_run()


def _fill(timeline):
    """A fixed sample stream exercising tags, ties and wall samples."""
    timeline.sample("net.sent", 2000.0, 7, category="control")
    timeline.sample("net.sent", 1000.0, 3, category="media")
    timeline.sample("net.sent", 1000.0, 5, category="control")
    timeline.sample("control.alive_hosts", 1000.0, 42)
    timeline.sample("engine.stage_seconds", 1500.0, 0.25, wall=True, stage="sweep")


class TestTimeSeries:
    def test_snapshot_sorts_by_time_series_tags(self):
        timeline = TimeSeries()
        _fill(timeline)
        keys = [
            (r["t_ms"], r["series"], r.get("tags", {}))
            for r in timeline.snapshot()
        ]
        assert keys == sorted(
            keys, key=lambda k: (k[0], k[1], json.dumps(k[2], sort_keys=True))
        )
        assert keys[0] == (1000.0, "control.alive_hosts", {})

    def test_insertion_order_breaks_exact_ties(self):
        timeline = TimeSeries()
        timeline.sample("s", 5.0, 1)
        timeline.sample("s", 5.0, 2)
        assert [r["value"] for r in timeline.snapshot()] == [1, 2]

    def test_values_canonicalised(self):
        timeline = TimeSeries()
        timeline.sample("s", 1.0, 0.1 + 0.2)
        timeline.sample("s", 2.0, float("nan"))
        timeline.sample("s", 3.0, float("inf"))
        timeline.sample("s", 4.0000004, True)
        records = timeline.snapshot()
        assert records[0]["value"] == 0.3
        assert records[1]["value"] is None
        assert records[2]["value"] is None
        assert records[3]["value"] is True and records[3]["t_ms"] == 4.0

    def test_tags_coerced_to_sorted_strings(self):
        timeline = TimeSeries()
        timeline.sample("s", 1.0, 1, shard=2, zone="b")
        assert timeline.snapshot()[0]["tags"] == {"shard": "2", "zone": "b"}

    def test_write_load_round_trip(self, tmp_path):
        timeline = TimeSeries(cadence_ms=250.0)
        _fill(timeline)
        path, count = timeline.write(tmp_path / TELEMETRY_FILENAME)
        assert count == timeline.sample_count == 5
        records = load_telemetry_file(path)
        assert records[0] == {
            "kind": "header",
            "schema": TELEMETRY_SCHEMA_VERSION,
            "cadence_ms": 250.0,
        }
        assert len(records) == 6
        assert validate_telemetry_records(records) == []

    def test_identical_streams_write_identical_bytes(self, tmp_path):
        a, b = TimeSeries(), TimeSeries()
        _fill(a)
        _fill(b)
        a.write(tmp_path / "a.jsonl")
        b.write(tmp_path / "b.jsonl")
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()

    def test_null_timeline_is_falsy_and_inert(self):
        assert not NULL_TIMELINE
        NULL_TIMELINE.sample("s", 1.0, 2, tag="x")  # must not raise
        assert bool(TimeSeries())

    def test_validator_flags_malformed_files(self):
        assert validate_telemetry_records([]) != []
        bad_header = [{"kind": "sample", "series": "s", "t_ms": 0, "value": 1}]
        assert "header" in validate_telemetry_records(bad_header)[0]
        wrong_schema = [{"kind": "header", "schema": 99, "cadence_ms": 1000.0}]
        assert "schema" in validate_telemetry_records(wrong_schema)[0]
        header = {"kind": "header", "schema": TELEMETRY_SCHEMA_VERSION}
        out_of_order = [
            header,
            {"kind": "sample", "series": "s", "t_ms": 5.0, "value": 1},
            {"kind": "sample", "series": "s", "t_ms": 1.0, "value": 2},
        ]
        assert any("order" in p for p in validate_telemetry_records(out_of_order))
        unknown_kind = [header, {"kind": "blob"}]
        assert any("kind" in p for p in validate_telemetry_records(unknown_kind))
        extra_field = [
            header,
            {"kind": "sample", "series": "s", "t_ms": 1.0, "value": 1, "oops": 2},
        ]
        assert any("oops" in p for p in validate_telemetry_records(extra_field))

    def test_load_rejects_invalid_file(self, tmp_path):
        path = tmp_path / TELEMETRY_FILENAME
        path.write_text('{"kind":"blob"}\n', encoding="utf-8")
        with pytest.raises(ValueError):
            load_telemetry_file(path)


class TestHistogramReservoir:
    def test_raw_samples_bounded_and_drops_counted(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("rtt")
        total = RESERVOIR_SIZE * 4
        for i in range(total):
            histogram.observe(float(i % 350))
        assert len(histogram.samples) == RESERVOIR_SIZE
        assert histogram.count == total
        assert histogram.dropped == total - RESERVOIR_SIZE
        assert registry.counter_value("telemetry.samples_dropped") == histogram.dropped
        # bucket-backed quantiles are unaffected by reservoir eviction
        assert histogram.min == 0.0 and histogram.max == 349.0
        q50 = histogram.quantile(0.5)
        assert q50 is not None and 100.0 <= q50 <= 250.0

    def test_reservoir_is_deterministic(self):
        def run():
            registry = MetricsRegistry()
            histogram = registry.histogram("h")
            for i in range(RESERVOIR_SIZE * 3):
                histogram.observe(float(i))
            return list(histogram.samples)

        assert run() == run()

    def test_small_histograms_keep_every_sample(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h")
        for i in range(10):
            histogram.observe(float(i))
        assert histogram.samples == [float(i) for i in range(10)]
        assert histogram.dropped == 0
        assert registry.counter_value("telemetry.samples_dropped") == 0


class TestTelemetryFileAndManifest:
    def test_run_writes_telemetry_and_manifest_block(self, tmp_path):
        with obs.observe(obs_dir=tmp_path, command="unit") as run:
            _fill(run.timeline)
        records = load_telemetry_file(tmp_path / TELEMETRY_FILENAME)
        assert len(records) == 6
        manifest = load_manifest(tmp_path / "run_manifest.json")
        assert validate_manifest(manifest) == []
        block = manifest["telemetry"]
        assert block["file"] == TELEMETRY_FILENAME
        assert block["samples"] == 5
        assert block["series"] == 3
        assert block["cadence_ms"] == DEFAULT_CADENCE_MS
        assert block["samples_dropped"] == 0

    def test_identical_runs_emit_identical_telemetry_bytes(self, tmp_path):
        def one_run(where):
            with obs.observe(obs_dir=where, command="unit") as run:
                _fill(run.timeline)
            return (where / TELEMETRY_FILENAME).read_bytes()

        assert one_run(tmp_path / "a") == one_run(tmp_path / "b")


class TestCrossProcessTraces:
    def _two_process_trace(self, tmp_path):
        """Simulate dial/serve tracers joined by wire-carried context."""
        dial = Tracer(tmp_path / "dial" / "traces.jsonl")
        dial.set_node("d")
        serve = Tracer(tmp_path / "serve" / "traces.jsonl")
        serve.set_node("s")
        call = dial.begin("call", at_ms=0.0, callee="10.0.0.2")
        request = call.child("net.request", at_ms=1.0)
        # ... the (trace_id, span_id) pair rides the codec extension ...
        handler = serve.continue_trace(
            request.trace_id, request.span_id, "serve.CallSetup", at_ms=2.0
        )
        handler.end(at_ms=5.0)
        request.end(at_ms=6.0)
        call.end(at_ms=7.0)
        dial.close()
        serve.close()
        return dial.path, serve.path

    def test_merged_files_build_one_connected_tree(self, tmp_path):
        dial_path, serve_path = self._two_process_trace(tmp_path)
        records = load_trace_files([dial_path, serve_path])
        trees = build_trees(records)
        assert len(trees) == 1
        tree = next(iter(trees.values()))
        assert tree.root.name == "call"
        assert not tree.orphans
        serve_span = tree.root.first("serve.CallSetup")
        assert serve_span is not None
        request_span = tree.root.first("net.request")
        assert serve_span in request_span.children

    def test_node_prefixes_keep_ids_disjoint(self, tmp_path):
        dial_path, serve_path = self._two_process_trace(tmp_path)
        records = load_trace_files([dial_path, serve_path])
        span_ids = [r["span"] for r in records if r.get("kind") == "span"]
        assert len(span_ids) == len(set(span_ids))
        assert {i.split("-")[0] for i in span_ids} == {"d", "s"}

    def test_single_file_alone_still_validates(self, tmp_path):
        # remote continuation spans must not demand their foreign parent
        _, serve_path = self._two_process_trace(tmp_path)
        records = load_trace_files([serve_path])
        assert any(r.get("remote") for r in records if r.get("kind") == "span")


class TestReport:
    def _run_dir(self, tmp_path):
        with obs.observe(obs_dir=tmp_path, command="unit", trace=True) as run:
            tracer = obs.tracer()
            root = tracer.begin("call", at_ms=0.0)
            inner = root.child("net.request", at_ms=1.0)
            inner.end(at_ms=4.0)
            root.end(at_ms=5.0)
            for t in range(5):
                run.timeline.sample("control.alive_hosts", t * 1000.0, 40 + t)
                run.timeline.sample("net.sent", t * 1000.0, t * 3, category="media")
                run.timeline.sample("engine.rows", t * 1000.0, t * t, wall=True)
        return tmp_path

    def test_load_run_and_render(self, tmp_path):
        artifacts = load_run(self._run_dir(tmp_path))
        assert artifacts.manifest is not None
        assert artifacts.telemetry and artifacts.traces
        text = "\n".join(render_report(artifacts, width=32))
        for expected in ("control", "net", "engine", "critical path", "call"):
            assert expected in text

    def test_report_renders_a_run_from_before_a_schema_bump(self, tmp_path, capsys):
        from repro.cli import main

        run_dir = self._run_dir(tmp_path)
        (run_dir / obs.TRACES_FILENAME).unlink()
        path = run_dir / obs.MANIFEST_FILENAME
        document = json.loads(path.read_text(encoding="utf-8"))
        document.update(schema=6, workers=1)  # as written before the v7 bump
        path.write_text(json.dumps(document, indent=2), encoding="utf-8")
        assert main(["report", "--run-dir", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "schema 6" in out and "INVALID (" in out
        assert "unknown field 'workers'" in out and "schema must be 7, got 6" in out
        assert "subsystem timelines (3 subsystems)" in out
        assert "control.alive_hosts" in out

    @pytest.mark.parametrize("text", ["[1, 2]\n", '{"schema": 7\n'])
    def test_report_rejects_a_manifest_that_is_no_json_object(self, tmp_path, capsys, text):
        from repro.cli import main

        run_dir = self._run_dir(tmp_path)
        (run_dir / obs.MANIFEST_FILENAME).write_text(text, encoding="utf-8")
        with pytest.raises(ArtifactError, match=obs.MANIFEST_FILENAME):
            load_run(run_dir)
        assert main(["report", "--run-dir", str(run_dir)]) == 2
        assert obs.MANIFEST_FILENAME in capsys.readouterr().err

    def test_subsystem_grouping_and_sparkline(self, tmp_path):
        artifacts = load_run(self._run_dir(tmp_path))
        groups = series_by_subsystem(artifacts.telemetry)
        assert set(groups) == {"control", "net", "engine"}
        assert "net.sent{category=media}" in groups["net"]
        line = sparkline(groups["control"]["control.alive_hosts"], width=8)
        assert len(line) == 8 and line[0] != line[-1]

    def test_profile_critical_path_and_flame(self, tmp_path):
        artifacts = load_run(self._run_dir(tmp_path))
        trees = build_trees(artifacts.traces)
        profile = {row["name"]: row for row in self_time_profile(trees)}
        assert profile["call"]["self_ms"] == pytest.approx(2.0)  # 5 - 3
        assert profile["net.request"]["total_ms"] == pytest.approx(3.0)
        path = critical_path(next(iter(trees.values())))
        assert [hop["name"] for hop in path] == ["call", "net.request"]
        flame = flame_document(trees)
        assert flame["name"] == "run" and flame["children"][0]["name"] == "call"
        out, frames = write_flame(artifacts, tmp_path / "flame.json")
        assert frames >= 2
        assert json.loads(out.read_text(encoding="utf-8"))["name"] == "run"

    def test_load_run_missing_dir_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_run(tmp_path / "nope")

    def test_line_that_is_no_object_is_a_typed_error(self, tmp_path):
        path = tmp_path / obs.TELEMETRY_FILENAME
        path.write_text("[1]\n", encoding="utf-8")
        with pytest.raises(ArtifactError, match="line 1: not an object"):
            load_telemetry_file(path)
        path = tmp_path / obs.TRACES_FILENAME
        path.write_text("[1]\n", encoding="utf-8")
        with pytest.raises(ArtifactError, match="missing header record"):
            obs.load_trace_files([path])

    def test_load_run_empty_dir_names_the_missing_artifact(self, tmp_path):
        with pytest.raises(ArtifactError, match=obs.MANIFEST_FILENAME):
            load_run(tmp_path)

    @pytest.mark.parametrize(
        "name", [obs.TRACES_FILENAME, obs.TELEMETRY_FILENAME, obs.MANIFEST_FILENAME]
    )
    def test_corrupt_line_names_file_and_line(self, tmp_path, name):
        run_dir = self._run_dir(tmp_path)
        path = run_dir / name
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[1] = lines[1][:-3]  # a truncated write
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        # The manifest is one indented document: its decoder stops on the
        # line after the cut.
        where = "not JSON at line 3" if name == obs.MANIFEST_FILENAME else "line 2 is not JSON"
        with pytest.raises(ArtifactError, match=rf"{name}: {where}"):
            load_run(run_dir)
