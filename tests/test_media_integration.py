"""Integration tests for the media plane riding the rest of the stack:
the N-way conference evaluation and the service-layer demo shipping
real ``MediaFrame`` messages."""

import pytest

from repro import obs
from repro.evaluation.conference import run_conference
from repro.media.score import MEASURED_MOS_TOLERANCE, score_trace
from repro.media.session import MediaPlaneConfig
from repro.scenario import tiny_scenario
from repro.service import ServiceWorld, run_demo
from repro.voip.codecs import ILBC


@pytest.fixture(scope="module")
def scenario():
    return tiny_scenario(seed=11)


class TestConference:
    def test_three_way_reports_every_leg(self, scenario):
        result = run_conference(scenario, participants=3, duration_ms=20_000.0)
        assert len(result.participants) == 3
        assert len(result.legs) == 3  # all pairs
        for leg in result.legs:
            assert 1.0 <= leg.measured_mos <= 4.5
            assert 1.0 <= leg.closed_form_mos <= 4.5
        assert result.min_leg_mos == min(l.measured_mos for l in result.legs)

    def test_burst_triggers_codec_switch_on_some_leg(self, scenario):
        result = run_conference(scenario, participants=3, duration_ms=20_000.0)
        assert result.total_switches > 0

    def test_burst_degrades_min_leg_mos(self, scenario):
        calm = run_conference(
            scenario, participants=3, duration_ms=20_000.0, burst=None
        )
        stormy = run_conference(scenario, participants=3, duration_ms=20_000.0)
        assert calm.min_leg_mos > stormy.min_leg_mos

    def test_clean_legs_match_closed_form(self, scenario):
        """Fault-free conference: measured per-leg MOS within tolerance of
        the closed-form score for the same (RTT, loss)."""
        media = MediaPlaneConfig(jitter_mean_ms=0.0, adaptation=None)
        result = run_conference(
            scenario, participants=3, duration_ms=20_000.0, burst=None, media=media
        )
        for leg in result.legs:
            if leg.base_loss == 0.0:
                assert leg.measured_mos == pytest.approx(
                    leg.closed_form_mos, abs=MEASURED_MOS_TOLERANCE
                )

    def test_result_json_is_deterministic(self, scenario):
        a = run_conference(scenario, participants=3, duration_ms=10_000.0)
        b = run_conference(scenario, participants=3, duration_ms=10_000.0)
        assert a.to_json() == b.to_json()

    def test_switches_visible_as_spans_and_telemetry(self, scenario):
        with obs.observe(command="conference", trace=True) as run:
            result = run_conference(scenario, participants=3, duration_ms=20_000.0)
            samples = run.timeline.snapshot()
            records = obs.tracer().records
        assert result.total_switches > 0
        names = [
            r["name"] for r in records if r.get("kind") in ("span", "point")
        ]
        assert names.count("conference") == 1
        assert names.count("conference.leg") == len(result.legs)
        switch_points = [
            r for r in records if r.get("name") == "media.codec_switch"
        ]
        assert len(switch_points) == result.total_switches
        assert any(p["attrs"]["to_codec"] == ILBC.name for p in switch_points)
        series = {s["series"] for s in samples}
        assert {
            "media.jitterbuf_depth_ms",
            "media.concealed_loss_rate",
            "media.codec_switches",
            "media.window_mos",
        } <= series
        legs = {s["tags"]["leg"] for s in samples if "leg" in s.get("tags", {})}
        assert len(legs) == len(result.legs)


class TestServiceMediaFrames:
    @pytest.fixture(scope="class")
    def cache_dir(self, tmp_path_factory):
        return str(tmp_path_factory.mktemp("scenario-cache"))

    def test_loopback_frames_reach_callee_and_score(self, cache_dir):
        world = ServiceWorld.from_scale("tiny", 0, cache_dir=cache_dir)
        result = run_demo(world=world, calls=1, media_ms=2_000.0, media_frames=True)
        assert result.completed == 1
        assert result.frame_traces and result.frame_traces[0]
        (trace,) = result.frame_traces[0].values()
        assert len(trace.frames) > 50  # ~2 s at 20 ms pacing
        assert trace.loss_rate < 0.5
        score = score_trace(trace)
        assert 1.0 <= score.mos <= 4.5

    def test_loopback_frame_traces_byte_identical(self, cache_dir):
        payloads = []
        for _ in range(2):
            world = ServiceWorld.from_scale("tiny", 0, cache_dir=cache_dir)
            result = run_demo(
                world=world, calls=1, media_ms=2_000.0, media_frames=True
            )
            (trace,) = result.frame_traces[0].values()
            payloads.append(trace.to_jsonl())
        assert payloads[0] == payloads[1]
