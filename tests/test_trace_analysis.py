"""Tests for the trace analyzer (``repro.obs.trace_analysis``).

The analyzer's contract is that everything — timelines, the setup
critical path, the L1-L4 limits report — derives purely from the
records of a ``traces.jsonl`` file.  These tests therefore always go
through the file on disk (write during a traced run, read back with
:func:`load_trace_file`) rather than peeking at live runtime state, and
check the runtime's ground truth only to *cross-validate* the trace.

Covers the PR's acceptance criteria:

- every media failover of a (chaos) run appears in its call's
  reconstructed timeline;
- the four Skype-limit metrics are reproduced from the trace alone;
- same-seed traced runs produce byte-identical trace files, and traces
  validate against the schema.
"""

import pytest

from repro import obs
from repro.core.config import ASAPConfig, derive_k_hops
from repro.core.runtime import ASAPRuntime
from repro.evaluation.chaos import run_chaos
from repro.evaluation.sessions import generate_workload
from repro.faults import FaultScheduleConfig
from repro.obs import trace_analysis as ta
from repro.obs.trace import Tracer, load_trace_file
from repro.skype.session import run_skype_session
from tests.oracles import tiny_scenario


@pytest.fixture(scope="module")
def scenario():
    return tiny_scenario(seed=11)


@pytest.fixture(autouse=True)
def no_leaked_run():
    if obs.active() is not None:
        obs.finish_run()
    yield
    if obs.active() is not None:
        obs.finish_run()


def _latent_pair(scenario):
    workload = generate_workload(scenario, 4, seed=0, latent_target=1)
    latent = workload.latent()
    if not latent:
        pytest.skip("no latent pair on this scenario")
    return latent[0].caller, latent[0].callee


def _traced_relay_kill(scenario, out_dir):
    """One relayed call whose relay is killed mid-media, traced to disk.

    Returns (records, media ground truth) — the runtime object itself is
    discarded to keep the analysis honest.
    """
    with obs.observe(obs_dir=out_dir, command="test", trace=True):
        runtime = ASAPRuntime(
            scenario, ASAPConfig(k_hops=derive_k_hops(scenario.matrices))
        )
        caller, callee = _latent_pair(scenario)
        record = runtime.schedule_call(caller, callee, media_duration_ms=15_000.0)
        runtime.run(until_ms=5_000.0)
        if record.outcome != "completed" or record.relay_ip is None:
            pytest.skip("setup did not select a relay on this scenario")
        runtime.schedule_leave(record.relay_ip, at_ms=runtime.sim.now_ms + 100.0)
        runtime.run()
        media = runtime.media_sessions[0]
        truth = {
            "failovers": len(media.failovers),
            "relay": str(record.relay_ip),
            "setup_ms": record.setup_ms,
        }
    return load_trace_file(out_dir / obs.TRACES_FILENAME), truth


class TestReconstruction:
    def test_trees_reparent_out_of_order_spans(self):
        tracer = Tracer()
        root = tracer.begin("call", 0.0, caller="a", callee="b")
        child = root.child("setup.ping", 0.0)
        grandchild = child.child("net.request", 0.0)
        grandchild.end(1.0)
        child.end(1.5)
        root.point("setup.done", 1.5, outcome="completed")
        root.end(2.0, outcome="finished")
        trees = ta.build_trees(tracer.records)
        assert len(trees) == 1
        tree = next(iter(trees.values()))
        assert tree.root is not None and tree.root.name == "call"
        assert [c.name for c in tree.root.children] == ["setup.ping", "setup.done"]
        ping = tree.root.children[0]
        assert [c.name for c in ping.children] == ["net.request"]
        assert not tree.orphans

    def test_unfinished_parent_leaves_orphans(self):
        tracer = Tracer()
        root = tracer.begin("call", 0.0)
        child = root.child("setup.ping", 0.0)
        child.end(1.0)
        # root never ends — the run stopped mid-call.
        trees = ta.build_trees(tracer.records)
        tree = next(iter(trees.values()))
        assert tree.root is None
        assert [n.name for n in tree.orphans] == ["setup.ping"]
        assert ta.render_timeline(tree)[0].startswith("trace")

    def test_find_and_first(self):
        tracer = Tracer()
        root = tracer.begin("call", 0.0)
        for leg in ("own", "peer"):
            root.child("setup.close_set", 1.0, leg=leg).end(2.0)
        root.end(3.0)
        tree = next(iter(ta.build_trees(tracer.records).values()))
        assert len(tree.root.find("setup.close_set")) == 2
        assert tree.root.first("setup.close_set").attrs["leg"] == "own"
        assert tree.root.first("missing") is None


class TestFailoverTimelines:
    def test_every_failover_appears_in_its_call_timeline(self, scenario, tmp_path):
        records, truth = _traced_relay_kill(scenario, tmp_path)
        trees = ta.build_trees(records)
        call_trees = [
            t for t in trees.values() if t.root is not None and t.root.name == "call"
        ]
        assert len(call_trees) == 1
        root = call_trees[0].root
        # Every runtime failover event has a matching trace point inside
        # this call's tree (failover, or degrade/drop when no candidate).
        traced = (
            root.find("media.failover")
            + root.find("media.degraded")
            + root.find("media.dropped")
        )
        assert len(traced) == truth["failovers"] >= 1
        assert root.find("media.relay_lost")
        failover = traced[0]
        assert failover.attrs["old_relay"] == truth["relay"]
        text = "\n".join(ta.render_timeline(call_trees[0]))
        assert failover.name in text
        assert truth["relay"] in text

    def test_chaos_failovers_all_traced(self, scenario, tmp_path):
        fault_config = FaultScheduleConfig(
            seed=5,
            duration_ms=20_000.0,
            surrogate_crash_rate_per_min=20.0,
            host_churn_rate_per_min=120.0,
        )
        with obs.observe(obs_dir=tmp_path, command="test", trace=True):
            result = run_chaos(
                scenario,
                fault_config,
                sessions=6,
                joins=6,
                media_duration_ms=8_000.0,
                seed=3,
                latent_target=6,
            )
        trees = ta.build_trees(load_trace_file(tmp_path / obs.TRACES_FILENAME))
        interruptions = sum(
            len(t.root.find("media.failover"))
            + len(t.root.find("media.degraded"))
            + len(t.root.find("media.dropped"))
            for t in trees.values()
            if t.root is not None and t.root.name == "call"
        )
        assert interruptions == len(result.interruption_times_ms)
        # Fault spans exist and disruption links point at real traces.
        links = ta.fault_links(trees)
        assert all(trace_id in trees for trace_id in links)


class TestCallAnalysis:
    def test_call_summary_fields(self, scenario, tmp_path):
        records, truth = _traced_relay_kill(scenario, tmp_path)
        calls = ta.analyze_calls(ta.build_trees(records))
        assert len(calls) == 1
        call = calls[0]
        assert call.relay == truth["relay"]
        assert call.path == "relay"
        assert call.setup_ms == pytest.approx(truth["setup_ms"], abs=0.01)
        assert call.chosen_rtt_ms is not None
        assert call.best_candidate_rtt_ms is not None
        assert call.relay_gap_ms is not None and call.relay_gap_ms >= 0.0
        # Lazy close-set builds under the call carry per-AS attribution.
        if call.probe_messages:
            assert call.probes_by_as
            assert sum(call.probes_by_as.values()) == call.probe_messages

    def test_limits_report_from_trace_alone(self, scenario, tmp_path):
        caller, callee = _latent_pair(scenario)
        with obs.observe(obs_dir=tmp_path, command="test", trace=True):
            runtime = ASAPRuntime(
                scenario, ASAPConfig(k_hops=derive_k_hops(scenario.matrices))
            )
            runtime.schedule_call(caller, callee, media_duration_ms=4_000.0)
            runtime.run()
            for session_id in range(2):
                run_skype_session(
                    scenario, caller, callee,
                    duration_ms=60_000.0, session_id=session_id,
                )
        records = load_trace_file(tmp_path / obs.TRACES_FILENAME)
        trees = ta.build_trees(records)
        calls = ta.analyze_calls(trees)
        skypes = ta.analyze_skype_calls(trees)
        assert len(calls) == 1 and len(skypes) == 2

        report = ta.limits_report(calls, skypes)
        assert report.n_calls == 1 and report.n_skype == 2
        # L4: Skype probe messages equal 2x the probes its traces record.
        total_probes = sum(d.probes for s in skypes for d in s.directions)
        assert total_probes > 0
        assert report.l4_skype_probe_messages == 2 * total_probes
        assert report.l4_asap_probe_messages == sum(
            c.probe_messages for c in calls
        )
        # L2: duplicates never exceed total probes.
        assert 0 <= report.l2_skype_dup_probes <= total_probes
        # L3: both stabilization numbers came from the traces.
        assert report.l3_skype_stabilize_ms is not None
        assert report.l3_asap_setup_ms == pytest.approx(calls[0].setup_ms)
        # Rendering: one row per limit, all formatted.
        rows = report.rows()
        assert len(rows) == 6
        assert all(isinstance(k, str) and isinstance(v, str) for k, v in rows)

    def test_skype_direction_summaries(self, scenario, tmp_path):
        caller, callee = _latent_pair(scenario)
        with obs.observe(obs_dir=tmp_path, command="test", trace=True):
            run_skype_session(scenario, caller, callee, duration_ms=60_000.0)
        trees = ta.build_trees(load_trace_file(tmp_path / obs.TRACES_FILENAME))
        (skype,) = ta.analyze_skype_calls(trees)
        assert len(skype.directions) == 2
        assert {d.direction for d in skype.directions} == {"fwd", "bwd"}
        for direction in skype.directions:
            assert direction.probes == sum(direction.probes_by_as.values())
            assert direction.bounces >= 0
            if direction.final_rtt_ms is not None:
                assert direction.best_path_rtt_ms is not None
                assert direction.relay_gap_ms >= 0.0


class TestDeterminism:
    def test_same_seed_runs_are_byte_identical(self, scenario, tmp_path):
        def one_run(out_dir):
            with obs.observe(obs_dir=out_dir, command="test", trace=True):
                runtime = ASAPRuntime(
                    scenario, ASAPConfig(k_hops=derive_k_hops(scenario.matrices))
                )
                caller, callee = _latent_pair(scenario)
                runtime.schedule_call(caller, callee, media_duration_ms=3_000.0)
                runtime.run()
                run_skype_session(scenario, caller, callee, duration_ms=30_000.0)
            return (out_dir / obs.TRACES_FILENAME).read_bytes()

        first = one_run(tmp_path / "a")
        second = one_run(tmp_path / "b")
        assert first == second
        assert load_trace_file(tmp_path / "a" / obs.TRACES_FILENAME)
