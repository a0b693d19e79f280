"""Tests of the benchmark harness itself (not part of tier-1).

    PYTHONPATH=src python -m pytest bench/tests -q

The smoke runs go through ``run.py`` exactly as a user would: each
workload in its own subprocess on the tiny world, one timed round.
"""

from __future__ import annotations

import copy
import json
import os
import re
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import compare  # noqa: E402
import spec  # noqa: E402
import tracing  # noqa: E402

BENCHMARK = spec.load_benchmark()
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _run(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("bench") / "smoke.json"
    done = _run("--smoke", "--out", str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(out.read_text())


@pytest.fixture(scope="module")
def traced_smoke(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("bench") / "traced.json"
    done = _run("--smoke", "--trace", "--out", str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(out.read_text())


def test_benchmark_json_shape():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert BENCHMARK["paths"] == ["bench"]
    assert len(BENCHMARK["workloads"]) == 6
    names = (
        [w["name"] for w in BENCHMARK["workloads"]]
        + [m["name"] for m in BENCHMARK["end_to_end"]]
        + [m["name"] for m in BENCHMARK["per_layer"]]
        + list(spec.WORKLOAD_METRICS)
    )
    assert all(NAME.match(name) for name in names), names
    assert len(set(names)) == len(names)
    setup = spec.end_to_end(BENCHMARK)["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in BENCHMARK["workloads"])


def test_smoke_emits_exactly_the_named_metrics(smoke):
    assert set(smoke["workloads"]) == set(spec.workload_names(BENCHMARK))
    for name, doc in smoke["workloads"].items():
        assert set(doc["metrics"]) == set(spec.metrics_of(name, BENCHMARK)), name
        assert doc["correct"], [c for c in doc["checks"] if not c["ok"]]
        assert doc["attempted"] >= 1 and doc["failed"] == 0
        for metric in spec.end_to_end(BENCHMARK):
            assert doc["metrics"][metric]["value"] > 0, (name, metric)
    assert smoke["checks"] and all(check["ok"] for check in smoke["checks"])
    envelope = smoke["envelope"]
    assert {"commit", "python", "numpy", "platform", "nproc",
            "loadavg_1min_at_start", "seed"} <= set(envelope)


def test_traced_smoke_emits_exactly_the_per_layer_metrics(traced_smoke):
    expected = set(spec.per_layer(BENCHMARK))
    for name, doc in traced_smoke["workloads"].items():
        assert set(doc["metrics"]) == expected, name
        assert doc["correct"], [c for c in doc["checks"] if not c["ok"]]
        assert doc["metrics"]["trace.overhead_ratio"]["value"] > 0
        assert os.path.exists(os.path.join(ROOT, doc["trace_file"]))
    layers = {n: d["metrics"] for n, d in traced_smoke["workloads"].items()}
    # A layer that a workload bypasses reads zero there.
    assert layers["exp-dense"]["columns.complete_calls"]["value"] == 0
    assert layers["exp-stream"]["columns.complete_calls"]["value"] > 0
    assert layers["wire-dial"]["sockets.requests"]["value"] == 0
    assert layers["wire-tcp"]["loopback.self_s"]["value"] == 0
    assert layers["media-calls"]["codec.encodes"]["value"] == 0


def test_single_workload_prints_the_result_object_last():
    done = _run("--workload", "media-calls", "--seed", "5", "--smoke", "--trace", "0")
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == set(spec.end_to_end(BENCHMARK))
    assert all(set(v) == {"value", "unit"} for v in result["metrics"].values())


def test_fails_without_the_product(tmp_path):
    """Only BENCHMARK.json + bench/: non-zero exit and no result line."""
    import shutil

    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "media-calls", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_self_time_arithmetic_on_a_synthetic_span_tree():
    """outer(a) calls mid(b) twice; mid calls leaf(b) once.  Fake clock: +1 per read."""
    tracer = tracing.Tracer()
    clock = iter(range(1000))
    tracing._clock, saved = (lambda: float(next(clock))), tracing._clock
    try:
        leaf = tracer.wrap_sync(lambda: None, "leaf", "b")
        mid = tracer.wrap_sync(lambda: leaf(), "mid", "b")
        outer = tracer.wrap_sync(lambda: (mid(), mid()), "outer", "a")
        tracer.enabled = True
        tracer.round = 0
        outer()
    finally:
        tracing._clock = saved
    spans = tracer.spans
    assert [s[tracing.NAME] for s in spans] == ["outer", "mid", "leaf", "mid", "leaf"]
    assert [s[tracing.PARENT] for s in spans] == [-1, 0, 1, 0, 3]
    stats = tracing.SpanStats(tracer, [0])
    # Self time = busy time minus the busy time of the spans that ran inside.
    assert stats.self_s["outer"] == stats.busy["outer"] - stats.busy["mid"]
    assert stats.self_s["mid"] == stats.busy["mid"] - stats.busy["leaf"]
    assert stats.self_s["leaf"] == stats.busy["leaf"] > 0
    # Layers add up to the root's busy time: nothing is counted twice.
    assert stats.layer_self["a"] + stats.layer_self["b"] == stats.busy["outer"]
    assert stats.layer_calls == {"a": 1, "b": 4}


def test_async_spans_count_busy_steps_only():
    import asyncio

    tracer = tracing.Tracer()

    async def waits():
        await asyncio.sleep(0.05)
        return 7

    wrapped = tracer.wrap_async(waits, "waits", "x")
    tracer.enabled = True
    assert asyncio.run(wrapped()) == 7
    (span,) = tracer.spans
    assert span[tracing.END] - span[tracing.START] >= 0.04   # wall includes the sleep
    assert span[tracing.BUSY] < 0.02                          # busy time does not


def test_wrappers_are_removed_after_a_traced_run():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.net import codec, loopback
    from repro.service.node import ServiceNode
    from repro.worldarrays.virtual import VirtualMatrices

    before = (
        codec.encode_frame, loopback.encode_frame,
        VirtualMatrices.__dict__["gather_rtt"], ServiceNode.__dict__["handle"],
    )
    tracer = tracing.Tracer()
    tracer.install()
    assert loopback.encode_frame is not before[1]
    assert loopback.encode_frame is codec.encode_frame  # by-name import patched too
    assert hasattr(VirtualMatrices.gather_rtt, "__bench_original__")
    tracer.uninstall()
    after = (
        codec.encode_frame, loopback.encode_frame,
        VirtualMatrices.__dict__["gather_rtt"], ServiceNode.__dict__["handle"],
    )
    assert before == after
    for module_name, fn_name, *_ in tracing.FUNCTIONS:
        assert not hasattr(getattr(sys.modules[module_name], fn_name), "__bench_original__")
    for module_name, cls_name, method, *_ in tracing.METHODS:
        cls = getattr(sys.modules[module_name], cls_name)
        assert not hasattr(cls.__dict__[method], "__bench_original__")


def test_compare_passes_an_identical_pair_and_flags_a_regression(smoke, tmp_path):
    rows, regressions = compare.compare(smoke, smoke, BENCHMARK)
    assert regressions == [] and len(rows) > 6

    # The rate bound is 0.25: a 30 % loss is a regression, a 20 % loss is not.
    worse = copy.deepcopy(smoke)
    worse["workloads"]["wire-tcp"]["metrics"]["throughput_per_s"]["value"] *= 0.7
    _, regressions = compare.compare(smoke, worse, BENCHMARK)
    assert len(regressions) == 1 and "wire-tcp.throughput_per_s" in regressions[0]
    within = copy.deepcopy(smoke)
    within["workloads"]["wire-tcp"]["metrics"]["throughput_per_s"]["value"] *= 0.8
    assert compare.compare(smoke, within, BENCHMARK)[1] == []

    # A 30 % *gain* is not a regression, in either direction of "better".
    better = copy.deepcopy(smoke)
    better["workloads"]["wire-tcp"]["metrics"]["throughput_per_s"]["value"] *= 1.3
    better["workloads"]["wire-tcp"]["metrics"]["rpc_ms_p90"]["value"] *= 0.7
    assert compare.compare(smoke, better, BENCHMARK)[1] == []

    # fail_share may not rise at all; MOS has an absolute bound.
    failing = copy.deepcopy(smoke)
    failing["workloads"]["media-calls"]["metrics"]["fail_share"]["value"] += 0.0005
    failing["workloads"]["media-calls"]["metrics"]["mos_median"]["value"] -= 0.02
    _, regressions = compare.compare(smoke, failing, BENCHMARK)
    assert sorted(r.split(":")[0] for r in regressions) == [
        "media-calls.fail_share", "media-calls.mos_median"
    ]

    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(smoke))
    b.write_text(json.dumps(worse))
    assert _run("--compare", str(a), str(a)).returncode == 0
    assert _run("--compare", str(a), str(b)).returncode == 1
