"""Tests for per-call causal tracing (``repro.obs.trace``).

Covers the tracer's four contracts:

- identifiers are deterministic (sequence counters + simulated time,
  never wall clock), so identical instrumentation yields byte-identical
  files;
- the disabled path is inert: the null tracer/span are falsy shared
  no-ops, and a run without ``trace=True`` writes nothing;
- records validate: header-first schema, field shapes, unique span ids,
  parent referential integrity across out-of-order emission;
- the tracer integrates with the observer: manifest accounting,
  ambient scoping.
"""

import json

import pytest

from repro import obs
from repro.obs.trace import (
    NULL_TRACER,
    NULL_TRACE_SPAN,
    TRACE_SCHEMA_VERSION,
    Tracer,
    load_trace_file,
    validate_trace_records,
)


@pytest.fixture(autouse=True)
def no_leaked_run():
    if obs.active() is not None:
        obs.finish_run()
    yield
    if obs.active() is not None:
        obs.finish_run()


def _sample_records():
    """A small two-trace record set exercised by several tests."""
    tracer = Tracer()
    call = tracer.begin("call", 10.0, caller="a", callee="b")
    ping = call.child("setup.ping", 10.0, attempt=1)
    ping.end(42.5, outcome="ok")
    call.point("setup.done", 42.5, outcome="completed")
    call.end(50.0, outcome="finished")
    join = tracer.begin("join", 60.0, ip="c")
    join.end(61.0, outcome="completed")
    return tracer.records


class TestIdentifiers:
    def test_ids_are_deterministic_across_tracers(self):
        first, second = Tracer(), Tracer()
        for tracer in (first, second):
            root = tracer.begin("call", 12.25, caller="a")
            child = root.child("setup.ping", 12.25)
            child.end(13.0, outcome="ok")
            root.end(20.0)
        assert first.records == second.records

    def test_trace_id_embeds_sequence_and_time(self):
        tracer = Tracer()
        root = tracer.begin("call", 12.25)
        assert root.trace_id == f"0001.{int(12.25 * 1000):x}"
        again = tracer.begin("call", 12.25)
        assert again.trace_id != root.trace_id  # sequence disambiguates

    def test_span_ids_unique_and_ordered(self):
        tracer = Tracer()
        root = tracer.begin("call", 0.0)
        children = [root.child("x", 0.0) for _ in range(5)]
        ids = [root.span_id] + [c.span_id for c in children]
        assert len(set(ids)) == len(ids)
        assert ids == sorted(ids)

    def test_end_is_idempotent(self):
        tracer = Tracer()
        root = tracer.begin("call", 0.0)
        root.end(1.0)
        root.end(2.0)
        spans = [r for r in tracer.records if r["kind"] == "span"]
        assert len(spans) == 1
        assert spans[0]["end_ms"] == 1.0


class TestDisabledPath:
    def test_null_objects_are_falsy(self):
        assert not NULL_TRACER
        assert not NULL_TRACE_SPAN
        assert Tracer()  # a real tracer is truthy
        assert Tracer().begin("x", 0.0)

    def test_null_span_propagates_itself(self):
        span = NULL_TRACE_SPAN.child("setup.ping", 1.0, attempt=1)
        assert span is NULL_TRACE_SPAN
        span.point("setup.done", 2.0)
        span.end(3.0, outcome="ok")  # all free no-ops

    def test_null_tracer_scope_stays_inert(self):
        with NULL_TRACER.scope(NULL_TRACE_SPAN):
            assert NULL_TRACER.active is NULL_TRACE_SPAN
        assert NULL_TRACER.begin("call", 0.0) is NULL_TRACE_SPAN
        assert NULL_TRACER.records == []

    def test_tracer_hook_off_without_trace_run(self):
        assert obs.tracer() is NULL_TRACER
        with obs.observe():
            assert obs.tracer() is NULL_TRACER  # run without trace=True

    def test_tracer_hook_on_with_trace_run(self):
        with obs.observe(trace=True) as run:
            assert obs.tracer() is run.trace
            assert obs.tracer()


class TestScoping:
    def test_scope_swaps_and_restores_ambient(self):
        tracer = Tracer()
        root = tracer.begin("call", 0.0)
        assert tracer.active is NULL_TRACE_SPAN
        with tracer.scope(root):
            assert tracer.active is root
            inner = root.child("setup.select", 1.0)
            with tracer.scope(inner):
                assert tracer.active is inner
            assert tracer.active is root
        assert tracer.active is NULL_TRACE_SPAN

    def test_clock_drives_now(self):
        tracer = Tracer()
        assert tracer.now() == 0.0
        tracer.clock = lambda: 123.5
        assert tracer.now() == 123.5


class TestValidation:
    def test_sample_records_validate(self):
        assert validate_trace_records(_sample_records()) == []

    def test_empty_and_missing_header_rejected(self):
        assert validate_trace_records([])
        records = _sample_records()
        assert validate_trace_records(records[1:])  # header stripped

    def test_wrong_schema_rejected(self):
        records = _sample_records()
        records[0] = {"kind": "header", "schema": TRACE_SCHEMA_VERSION + 1}
        assert any("schema" in p for p in validate_trace_records(records))

    def test_unknown_parent_rejected(self):
        records = _sample_records()
        records[1]["parent"] = "ffffff"
        assert any("parent" in p for p in validate_trace_records(records))

    def test_cross_trace_parent_rejected(self):
        tracer = Tracer()
        a = tracer.begin("call", 0.0)
        b = tracer.begin("call", 1.0)
        stray = tracer._span(b.trace_id, a.span_id, "x", 1.0, {})
        stray.end(2.0)
        a.end(3.0)
        b.end(3.0)
        assert any("belongs to trace" in p for p in validate_trace_records(tracer.records))

    def test_duplicate_span_id_rejected(self):
        records = _sample_records()
        records.append(dict(records[1]))
        assert any("duplicate" in p for p in validate_trace_records(records))

    def test_end_before_start_rejected(self):
        tracer = Tracer()
        root = tracer.begin("call", 10.0)
        root.end(5.0)
        assert any("before start" in p for p in validate_trace_records(tracer.records))

    def test_out_of_order_parents_are_legal(self):
        # Children are emitted before their parent ends; the two-pass
        # validator must accept the file order the tracer produces.
        tracer = Tracer()
        root = tracer.begin("call", 0.0)
        child = root.child("setup.ping", 0.0)
        child.end(1.0)
        root.end(2.0)
        kinds = [r["name"] for r in tracer.records if r["kind"] == "span"]
        assert kinds == ["setup.ping", "call"]  # child first in the file
        assert validate_trace_records(tracer.records) == []


class TestFileStream:
    def test_records_stream_to_disk_and_load_back(self, tmp_path):
        path = tmp_path / "traces.jsonl"
        tracer = Tracer(path)
        root = tracer.begin("call", 0.0, caller="a")
        root.point("setup.done", 1.0)
        root.end(2.0, outcome="finished")
        tracer.close()
        records = load_trace_file(path)
        assert records == tracer.records
        assert records[0] == {"kind": "header", "schema": TRACE_SCHEMA_VERSION}
        assert tracer.records_written == len(records)

    def test_lines_are_canonical_json(self, tmp_path):
        path = tmp_path / "traces.jsonl"
        tracer = Tracer(path)
        tracer.begin("call", 0.0, z="last", a="first").end(1.0)
        tracer.close()
        for line in path.read_text().splitlines():
            assert line == json.dumps(
                json.loads(line), sort_keys=True, separators=(",", ":")
            )

    def test_load_rejects_corrupt_file(self, tmp_path):
        path = tmp_path / "traces.jsonl"
        path.write_text('{"kind":"span"}\n')
        with pytest.raises(ValueError):
            load_trace_file(path)


class TestObserverIntegration:
    def test_manifest_accounts_for_traces(self, tmp_path):
        with obs.observe(obs_dir=tmp_path, command="unit", trace=True):
            tracer = obs.tracer()
            tracer.begin("call", 0.0).end(1.0)
        manifest = obs.load_manifest(tmp_path / obs.MANIFEST_FILENAME)
        assert manifest["traces_file"] == obs.TRACES_FILENAME
        assert manifest["traces_written"] == 2  # header + one span
        assert load_trace_file(tmp_path / obs.TRACES_FILENAME)

    def test_untraced_run_writes_no_trace_file(self, tmp_path):
        with obs.observe(obs_dir=tmp_path, command="unit"):
            obs.tracer().begin("call", 0.0).end(1.0)  # no-op
        manifest = obs.load_manifest(tmp_path / obs.MANIFEST_FILENAME)
        assert manifest["traces_file"] is None
        assert manifest["traces_written"] == 0
        assert not (tmp_path / obs.TRACES_FILENAME).exists()
