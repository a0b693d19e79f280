"""Unit tests for the ``repro.media`` plane: frames, jitter buffer,
PLC, codec adaptation, trace scoring and the end-to-end session."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, ProtocolError
from repro.media.adapt import AdaptationPolicy, CodecAdapter
from repro.media.frames import (
    CODEC_WIRE_IDS,
    ReceivedFrame,
    ReceivedTrace,
    codec_by_wire_id,
    trace_from_wire,
)
from repro.media import jitterbuf
from repro.media.jitterbuf import AdaptiveJitterBuffer, JitterBufferConfig
from repro.media.plc import conceal
from repro.media.score import MEASURED_MOS_TOLERANCE, score_trace
from repro.media.session import MediaPlaneConfig, PathWindow, run_media_session
from repro.voip.codecs import ALL_CODECS, G729A_VAD, ILBC
from repro.voip.emodel import EModel, EModelConfig
from repro.voip.outage import OutageWindow
from repro.voip.quality import mos_of_path
from tests.oracles import (
    ReferenceCodecAdapter,
    ReferenceJitterBuffer,
    reference_media_session,
    reference_score_trace,
)


# -- fallback codec sanity (satellite) ----------------------------------------


class TestFallbackCodec:
    def test_fallback_worse_at_zero_loss(self):
        """iLBC's longer frame + lookahead costs delay: at zero loss the
        primary codec scores strictly better."""
        primary = EModel(EModelConfig(codec=G729A_VAD))
        fallback = EModel(EModelConfig(codec=ILBC))
        for one_way in (20.0, 80.0, 150.0):
            assert primary.mos(one_way, 0.0) > fallback.mos(one_way, 0.0)

    def test_fallback_better_at_high_loss(self):
        """iLBC's Bpl advantage dominates once loss climbs."""
        primary = EModel(EModelConfig(codec=G729A_VAD))
        fallback = EModel(EModelConfig(codec=ILBC))
        for loss in (0.05, 0.10, 0.20):
            assert fallback.mos(80.0, loss) > primary.mos(80.0, loss)

    def test_ilbc_constants(self):
        assert ILBC.bpl > G729A_VAD.bpl
        assert ILBC.codec_delay_ms() > G729A_VAD.codec_delay_ms()
        assert ILBC in ALL_CODECS


# -- frames -------------------------------------------------------------------


class TestFrames:
    def test_wire_ids_are_stable_and_total(self):
        assert len(CODEC_WIRE_IDS) == len(ALL_CODECS)
        for codec in ALL_CODECS:
            assert codec_by_wire_id(CODEC_WIRE_IDS[codec.name]) is codec
        with pytest.raises(ConfigurationError):
            codec_by_wire_id(200)

    def test_source_paces_at_codec_interval(self):
        result = run_media_session(
            1, 100.0, [PathWindow(0.0, 100.0, 0.0)],
            config=MediaPlaneConfig(adaptation=None),
        )
        frames = result.trace.frames
        assert [f.sequence for f in frames] == list(range(5))
        assert [f.sent_ms for f in frames] == [0.0, 20.0, 40.0, 60.0, 80.0]

    def test_switch_changes_pacing(self):
        """A switch fired on frame 0 re-codes frame 1 onward; frame 0 still
        advances the clock by its own codec's interval, frame 1 by the
        fallback's."""
        policy = AdaptationPolicy(window_frames=1, down_loss=0.5, up_loss=0.0,
                                  min_dwell_frames=1_000)
        result = run_media_session(
            1, 200.0, [PathWindow(0.0, 100.0, 1.0)],
            config=MediaPlaneConfig(adaptation=policy),
        )
        first, second, third = result.trace.frames[:3]
        assert [s.sequence for s in result.switches] == [0]
        assert (first.codec, second.codec) == (G729A_VAD.name, ILBC.name)
        assert second.sent_ms - first.sent_ms == G729A_VAD.packet_interval_ms()
        assert third.sent_ms - second.sent_ms == ILBC.packet_interval_ms()

    def test_trace_rejects_gaps(self):
        with pytest.raises(ConfigurationError):
            ReceivedTrace(
                call_id=1,
                frames=(ReceivedFrame(1, 0.0, 1.0, "G.729A+VAD"),),
            )

    def test_trace_from_wire_fills_gaps_as_loss(self):
        wire_id = CODEC_WIRE_IDS["G.729A+VAD"]
        receipts = [
            (0, 0.0, 60.0, wire_id),
            (2, 40.0, 100.0, wire_id),
            (2, 40.0, 95.0, wire_id),   # duplicate: earliest arrival wins
        ]
        trace = trace_from_wire(7, receipts, expected_frames=4)
        assert len(trace.frames) == 4
        assert trace.frames[1].lost and trace.frames[3].lost
        assert trace.frames[2].arrival_ms == 95.0
        assert trace.frames[1].sent_ms == 20.0  # interpolated pacing


    def test_trace_from_wire_bounds_receipts_by_the_budget(self):
        # One forged frame would otherwise ask for 2**32 phantom frames.
        wire_id = CODEC_WIRE_IDS["G.729A+VAD"]
        receipts = [(0, 0.0, 60.0, wire_id), (2**32 - 1, 40.0, 100.0, wire_id)]
        with pytest.raises(ProtocolError, match=r"call 7: frame seq 4294967295 .* 100 frames"):
            trace_from_wire(7, receipts, budget=100)
        in_budget = trace_from_wire(7, receipts[:1] + [(99, 40.0, 100.0, wire_id)], budget=100)
        assert len(in_budget.frames) == 100  # largest seq + 1, as without a budget
        with pytest.raises(ProtocolError, match="seq 100 "):
            trace_from_wire(7, [(100, 0.0, 1.0, wire_id)], budget=100)


# -- jitter buffer ------------------------------------------------------------


def _loss_rate(trace):
    """Share of a trace's frames that never arrived."""
    return sum(f.lost for f in trace.frames) / len(trace.frames) if trace.frames else 0.0


def _trace(arrivals, interval=20.0, codec="G.729A+VAD"):
    return ReceivedTrace(
        call_id=1,
        frames=tuple(
            ReceivedFrame(i, i * interval, a, codec) for i, a in enumerate(arrivals)
        ),
    )


class TestJitterBuffer:
    def test_steady_path_all_played_at_min_depth(self):
        trace = _trace([i * 20.0 + 60.0 for i in range(50)])
        result = AdaptiveJitterBuffer().play(trace)
        assert result.played == 50 and result.late == 0 and result.lost == 0
        assert all(f.depth_ms == pytest.approx(20.0) for f in result.frames)
        # Playout = sent + delay + depth on a jitter-free path.
        assert result.frames[10].playout_ms == pytest.approx(10 * 20.0 + 60.0 + 20.0)

    def test_late_frame_reclassified_as_loss(self):
        arrivals = [i * 20.0 + 60.0 for i in range(50)]
        arrivals[30] = 30 * 20.0 + 500.0  # way past any deadline
        result = AdaptiveJitterBuffer().play(_trace(arrivals))
        assert result.frames[30].status == "late"
        assert result.effective_loss_flags[30] is True
        assert result.late == 1

    def test_lost_frames_do_not_advance_estimators(self):
        steady = [i * 20.0 + 60.0 for i in range(40)]
        with_loss = list(steady)
        with_loss[5] = None
        a = AdaptiveJitterBuffer().play(_trace(steady))
        b = AdaptiveJitterBuffer().play(_trace(with_loss))
        # Every other frame's playout schedule is unchanged by the loss.
        for i in (6, 20, 39):
            assert a.frames[i].playout_ms == b.frames[i].playout_ms

    def test_depth_clamped_to_max(self):
        config = JitterBufferConfig(max_depth_ms=50.0)
        buf = AdaptiveJitterBuffer(config)
        arrivals = [i * 20.0 + 60.0 + (i % 7) * 40.0 for i in range(200)]
        result = buf.play(_trace(arrivals))
        assert all(f.depth_ms <= 50.0 for f in result.frames)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            JitterBufferConfig(min_depth_ms=100.0, max_depth_ms=10.0)


@st.composite
def wire_receipts(draw):
    """Receipts of one paced stream in any order: gaps, duplicate
    copies, reordering and delay spikes (early arrivals included)."""
    codec = draw(st.sampled_from(ALL_CODECS))
    count = draw(st.integers(1, 40))
    spike = st.one_of(st.floats(-20.0, 150.0), st.floats(150.0, 3_000.0))
    receipts = draw(st.lists(
        st.tuples(st.integers(0, count - 1), spike), max_size=3 * count
    ))
    interval = codec.packet_interval_ms()
    wire_id = CODEC_WIRE_IDS[codec.name]
    return count, [
        (seq, seq * interval, seq * interval + delay, wire_id) for seq, delay in receipts
    ]


jitterbuf_configs = st.builds(
    lambda low, extra: JitterBufferConfig(low, low + extra),
    st.floats(0.0, 100.0), st.floats(0.0, 300.0),
)


class TestPlayoutProperties:
    @given(wire_receipts(), jitterbuf_configs)
    @settings(max_examples=300, deadline=None)
    def test_any_receipts_play_out_in_order_and_on_time(self, wire, config):
        sent, receipts = wire
        trace = trace_from_wire(3, receipts, expected_frames=sent)
        earliest = {}
        for seq, _, arrival, _ in receipts:
            earliest[seq] = min(arrival, earliest.get(seq, arrival))
        for frame in trace.frames:  # duplicates keep the earliest copy
            assert frame.arrival_ms == (
                round(earliest[frame.sequence], 3) if frame.sequence in earliest else None
            )

        result = AdaptiveJitterBuffer(config).play(trace)
        assert [f.sequence for f in result.frames] == list(range(sent))
        assert result.played + result.late + result.lost == sent
        assert result.lost == sent - len(earliest)
        instants = [f.playout_ms for f in result.frames]
        assert instants == sorted(instants), "the playout clock ran backwards"
        for frame, out in zip(trace.frames, result.frames):
            if out.status == "played":
                assert frame.arrival_ms <= out.playout_ms

    def test_delay_spike_with_fast_estimator_keeps_clock_monotone(self, monkeypatch):
        """alpha=0.5 lets one 600 ms spike drag ``d_hat`` down by more
        than a frame interval on the next arrival."""
        monkeypatch.setattr(jitterbuf, "ALPHA", 0.5)
        monkeypatch.setattr(jitterbuf, "FACTOR", 1.0)
        arrivals = [i * 20.0 + 60.0 for i in range(12)]
        arrivals[5] = 5 * 20.0 + 660.0
        result = AdaptiveJitterBuffer().play(_trace(arrivals))
        instants = [f.playout_ms for f in result.frames]
        assert instants == sorted(instants)
        assert result.frames[5].status == "late"


# -- PLC ----------------------------------------------------------------------


class TestPLC:
    def test_short_runs_fully_concealed(self):
        flags = [False, True, True, False, True, False]
        report = conceal(flags)
        assert report.concealed == 3 and report.revealed == 0
        assert report.effective_loss == pytest.approx(3 * 0.35 / 6)

    def test_long_burst_revealed_past_window(self):
        flags = [False] * 5 + [True] * 8 + [False] * 5
        report = conceal(flags)
        assert report.concealed == 3 and report.revealed == 5
        assert report.statuses[5:8] == ("concealed",) * 3
        assert report.statuses[8:13] == ("revealed",) * 5

    def test_burst_aware_same_mean_loss(self):
        """Same loss count, burstier arrangement → more revealed loss."""
        scattered = ([True] + [False] * 9) * 4          # 4 isolated losses
        bursty = [True] * 4 + [False] * 36              # one 4-burst
        assert (
            conceal(bursty).effective_loss > conceal(scattered).effective_loss
        )

    def test_runs_reset_after_good_frame(self):
        flags = [True] * 3 + [False] + [True] * 3
        report = conceal(flags)
        assert report.revealed == 0  # both runs fit the window


# -- adaptation ---------------------------------------------------------------


class TestAdaptation:
    def test_down_and_up_switch_with_hysteresis(self):
        policy = AdaptationPolicy(window_frames=10, down_loss=0.3, up_loss=0.1,
                                  min_dwell_frames=0)
        adapter = CodecAdapter(policy)
        switches = []
        t = 0.0
        # 10 clean frames, then a heavy-loss episode, then clean again.
        pattern = [False] * 10 + [True] * 5 + [False] * 40
        for seq, lost in enumerate(pattern):
            s = adapter.observe(seq, t, lost)
            if s:
                switches.append(s)
            t += 20.0
        assert [s.to_codec for s in switches] == ["iLBC", "G.729A+VAD"]
        assert switches[0].window_loss >= policy.down_loss
        assert switches[1].window_loss <= policy.up_loss

    def test_no_switch_inside_hysteresis_band(self):
        policy = AdaptationPolicy(window_frames=10, down_loss=0.5, up_loss=0.1,
                                  min_dwell_frames=0)
        adapter = CodecAdapter(policy)
        # Constant 20% loss sits between the thresholds: never switches.
        for seq in range(200):
            assert adapter.observe(seq, seq * 20.0, seq % 5 == 0) is None
        assert adapter.codec is policy.primary

    def test_dwell_blocks_immediate_flap(self):
        policy = AdaptationPolicy(window_frames=4, down_loss=0.5, up_loss=0.4,
                                  min_dwell_frames=100)
        adapter = CodecAdapter(policy)
        switched = 0
        for seq in range(100):
            if adapter.observe(seq, seq * 20.0, True):
                switched += 1
        assert switched == 1  # dwell holds despite the thresholds inviting flaps

    def test_policy_validation(self):
        with pytest.raises(ConfigurationError):
            AdaptationPolicy(down_loss=0.1, up_loss=0.2)
        with pytest.raises(ConfigurationError):
            AdaptationPolicy(window_frames=0)


# -- scoring ------------------------------------------------------------------


class TestScoreTrace:
    @given(
        rtt=st.floats(0.0, 800.0),
        duration=st.floats(20.0, 20_000.0),
        window_ms=st.floats(50.0, 5_000.0),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=100, deadline=None)
    def test_measured_agrees_with_closed_form_on_clean_path(self, rtt, duration, window_ms, seed):
        """ROADMAP invariant (a): on a zero-fault, zero-jitter fixed-RTT
        path the measured MOS stays within the documented tolerance of
        the closed-form E-model score (same codec, same loss), whatever
        the RTT, duration, scoring window and seed."""
        result = run_media_session(
            call_id=1,
            duration_ms=duration,
            path=[PathWindow(0.0, rtt, 0.0)],
            config=MediaPlaneConfig(jitter_mean_ms=0.0, adaptation=None, window_ms=window_ms),
            seed=seed,
        )
        closed = mos_of_path(rtt, loss_rate=0.0)
        assert abs(result.score.mos - closed) < MEASURED_MOS_TOLERANCE

    def test_zero_played_window_counts_as_outage(self):
        arrivals = [i * 20.0 + 60.0 for i in range(150)]
        for i in range(50, 100):       # second second: nothing arrives
            arrivals[i] = None
        score = score_trace(_trace(arrivals))
        assert any(w.is_outage for w in score.windows)
        assert score.outage_windows
        assert score.mos < score.base_mos

    def test_loss_lowers_measured_mos(self):
        clean = run_media_session(
            1, 10_000.0, [PathWindow(0.0, 100.0, 0.0)],
            config=MediaPlaneConfig(jitter_mean_ms=0.0), seed=0,
        )
        lossy = run_media_session(
            1, 10_000.0, [PathWindow(0.0, 100.0, 0.10)],
            config=MediaPlaneConfig(jitter_mean_ms=0.0), seed=0,
        )
        assert lossy.score.mos < clean.score.mos

    def test_empty_trace_rejected(self):
        with pytest.raises(ConfigurationError):
            score_trace(ReceivedTrace(call_id=1, frames=()))


# -- end-to-end session -------------------------------------------------------


class TestMediaSession:
    def test_same_seed_byte_identical(self):
        kwargs = dict(
            call_id=5,
            duration_ms=12_000.0,
            path=[PathWindow(0.0, 120.0, 0.02)],
            config=MediaPlaneConfig(burst_frames=4.0),
            seed=11,
        )
        a = run_media_session(**kwargs)
        b = run_media_session(**kwargs)
        assert a.trace.to_jsonl() == b.trace.to_jsonl()
        assert a.score == b.score
        assert a.switches == b.switches

    def test_different_seeds_differ(self):
        kwargs = dict(
            call_id=5, duration_ms=12_000.0,
            path=[PathWindow(0.0, 120.0, 0.05)],
            config=MediaPlaneConfig(),
        )
        a = run_media_session(seed=1, **kwargs)
        b = run_media_session(seed=2, **kwargs)
        assert a.trace.to_jsonl() != b.trace.to_jsonl()

    def test_burst_triggers_codec_switch(self):
        result = run_media_session(
            call_id=2,
            duration_ms=20_000.0,
            path=[
                PathWindow(0.0, 120.0, 0.005),
                PathWindow(5_000.0, 120.0, 0.30),
                PathWindow(12_000.0, 120.0, 0.005),
            ],
            config=MediaPlaneConfig(burst_frames=4.0),
            seed=5,
        )
        downs = [s for s in result.switches if s.to_codec == ILBC.name]
        assert downs, "expected a fallback switch under the loss burst"
        assert 5_000.0 <= downs[0].at_ms <= 12_000.0

    def test_outage_overrides_channel_without_perturbing_it(self):
        kwargs = dict(
            call_id=3, duration_ms=10_000.0,
            path=[PathWindow(0.0, 100.0, 0.0)],
            config=MediaPlaneConfig(jitter_mean_ms=0.0, adaptation=None),
            seed=0,
        )
        clean = run_media_session(**kwargs)
        cut = run_media_session(
            outages=[OutageWindow(3_000.0, 5_000.0)], **kwargs
        )
        # Outside the outage the traces agree frame for frame.
        for f_clean, f_cut in zip(clean.trace.frames, cut.trace.frames):
            if 3_000.0 <= f_clean.sent_ms < 5_000.0:
                assert f_cut.lost
            else:
                assert f_clean == f_cut
        assert cut.score.mos < clean.score.mos

    #: One 10 s window at 5 % loss, cut 3–5 s; and 20 s at seed 11 through a
    #: 4 s loss burst, cut 6–8 s (the burst's GE draws precede the cut).
    _SHORT = (3, 10_000.0, [PathWindow(0.0, 100.0, 0.05)], 0, (3_000.0, 5_000.0))
    _AFTER_BURST = (
        1, 20_000.0,
        [PathWindow(0.0, 120.0, 0.005), PathWindow(5_000.0, 120.0, 0.30),
         PathWindow(9_000.0, 120.0, 0.005)],
        11, (6_000.0, 8_000.0),
    )

    @pytest.mark.parametrize("burst_frames, session", [
        pytest.param(4.0, _SHORT, id="4.0"),
        pytest.param(None, _SHORT, id="None"),
        pytest.param(4.0, _AFTER_BURST, id="after-burst"),
    ])
    def test_outage_leaves_jittered_lossy_channel_untouched(self, burst_frames, session):
        """With jitter and loss on, an outage changes only the frames it
        covers: every other frame keeps its loss and arrival, field for
        field.  (A frame lost to the outage used to skip its jitter draw,
        shifting the draws of every later frame.)"""
        call_id, duration_ms, path, seed, (start, end) = session
        kwargs = dict(
            call_id=call_id, duration_ms=duration_ms, path=path,
            config=MediaPlaneConfig(
                jitter_mean_ms=6.0, burst_frames=burst_frames, adaptation=None,
            ),
            seed=seed,
        )
        clean = run_media_session(**kwargs)
        cut = run_media_session(outages=[OutageWindow(start, end)], **kwargs)
        inside = [f for f in cut.trace.frames if start <= f.sent_ms < end]
        assert len(inside) == 100 and all(f.lost for f in inside)
        outside = [
            (f_clean, f_cut)
            for f_clean, f_cut in zip(clean.trace.frames, cut.trace.frames)
            if not start <= f_clean.sent_ms < end
        ]
        assert len(outside) == len(clean.trace.frames) - 100
        assert [f for f, _ in outside] == [f for _, f in outside]

    def test_session_validation(self):
        with pytest.raises(ConfigurationError):
            run_media_session(1, 0.0, [PathWindow(0.0, 100.0, 0.0)])
        with pytest.raises(ConfigurationError):
            run_media_session(1, 1000.0, [])
        with pytest.raises(ConfigurationError):
            run_media_session(
                1, 1000.0,
                [PathWindow(500.0, 100.0, 0.0), PathWindow(0.0, 100.0, 0.0)],
            )


# -- one-pass pipeline vs the per-frame reference -------------------------------


@st.composite
def media_sessions(draw):
    """A session spec covering every branch of the frame loop: 1-4 path
    segments, 0-2 outages, i.i.d. or Gilbert–Elliott loss, jitter on or
    off, and adaptation off or tight enough that switches fire."""
    duration = draw(st.floats(20.0, 6_000.0))
    starts = draw(st.lists(st.floats(0.0, duration), max_size=3))
    path = [
        PathWindow(start, draw(st.floats(0.0, 600.0)), draw(st.floats(0.0, 0.4)))
        for start in [0.0] + sorted(starts)
    ]
    outages = [
        OutageWindow(start, start + draw(st.floats(1.0, 3_000.0)))
        for start in draw(st.lists(st.floats(0.0, duration), max_size=2))
    ]
    adaptation = draw(st.one_of(st.none(), st.builds(
        lambda window, down, up, dwell: AdaptationPolicy(
            window_frames=window, down_loss=down, up_loss=up * down, min_dwell_frames=dwell,
        ),
        st.integers(1, 20), st.floats(0.05, 0.5), st.floats(0.0, 0.9), st.integers(0, 10),
    )))
    config = MediaPlaneConfig(
        jitter_mean_ms=draw(st.one_of(st.just(0.0), st.floats(0.5, 20.0))),
        burst_frames=draw(st.one_of(st.none(), st.floats(1.0, 8.0))),
        adaptation=adaptation,
        window_ms=draw(st.floats(50.0, 2_000.0)),
    )
    return duration, path, outages, config, draw(st.integers(0, 2**16))


@st.composite
def switching_wire_traces(draw):
    """Wire traces whose codec changes run to run, with whole runs lost:
    a lost run's send times are interpolated at the last received codec's
    interval, so after a 30 ms codec a lost run of four or more 20 ms
    frames steps past the next received frame — send times need not be
    monotone, and a scoring window can be visited twice."""
    runs = draw(st.lists(
        st.tuples(st.sampled_from(ALL_CODECS), st.integers(1, 12), st.sampled_from("kdm")),
        min_size=1, max_size=8,
    ))
    receipts, seq, sent = [], 0, 0.0
    for codec, length, fate in runs:  # kept, dropped or mixed
        for _ in range(length):
            if fate == "k" or (fate == "m" and draw(st.booleans())):
                delay = draw(st.floats(0.0, 400.0))
                receipts.append((seq, sent, sent + delay, CODEC_WIRE_IDS[codec.name]))
            seq += 1
            sent += codec.packet_interval_ms()
    return trace_from_wire(4, receipts, expected_frames=seq)


def _rows(frames):
    return [(f.sequence, f.status, f.playout_ms, f.depth_ms) for f in frames]


class TestReferencePipeline:
    @given(media_sessions())
    @settings(max_examples=150, deadline=None)
    def test_session_matches_per_frame_reference(self, spec):
        duration, path, outages, config, seed = spec
        got = run_media_session(7, duration, path, outages, config, seed)
        want = reference_media_session(7, duration, path, outages, config, seed)
        assert got.trace.to_jsonl() == want.trace.to_jsonl()
        assert _rows(got.playout.frames) == _rows(want.playout)
        assert got.score == want.score
        assert got.switches == want.switches
        statuses = [f.status for f in want.playout]
        assert (got.playout.played, got.playout.late, got.playout.lost) == (
            statuses.count("played"), statuses.count("late"), statuses.count("lost")
        )

    @given(media_sessions())
    @settings(max_examples=100, deadline=None)
    def test_outages_change_only_the_frames_they_cover(self, spec):
        duration, path, outages, config, seed = spec
        config = dataclasses.replace(config, adaptation=None)
        clean = run_media_session(7, duration, path, (), config, seed)
        cut = run_media_session(7, duration, path, outages, config, seed)
        assert len(clean.trace.frames) == len(cut.trace.frames)
        for f_clean, f_cut in zip(clean.trace.frames, cut.trace.frames):
            if any(w.start_ms <= f_clean.sent_ms < w.end_ms for w in outages):
                assert f_cut == f_clean._replace(arrival_ms=None)
            else:
                assert f_cut == f_clean

    @given(switching_wire_traces(), jitterbuf_configs, st.floats(10.0, 500.0))
    @settings(max_examples=200, deadline=None)
    def test_scorer_matches_reference_on_any_wire_trace(self, trace, config, window_ms):
        playout = AdaptiveJitterBuffer(config).play(trace)
        rows = ReferenceJitterBuffer(config).play(trace)
        assert _rows(playout.frames) == _rows(rows)
        assert playout.effective_loss_flags == tuple(f.status != "played" for f in rows)
        got = score_trace(trace, config, window_ms=window_ms, playout=playout)
        assert got == reference_score_trace(trace, rows, window_ms)

    @given(
        st.lists(st.booleans(), max_size=300),
        st.integers(1, 30),
        st.integers(0, 20),
    )
    @settings(max_examples=100, deadline=None)
    def test_running_window_loss_matches_a_resum(self, flags, window, dwell):
        policy = AdaptationPolicy(window_frames=window, down_loss=0.3, up_loss=0.1,
                                  min_dwell_frames=dwell)
        adapter, reference = CodecAdapter(policy), ReferenceCodecAdapter(policy)
        for seq, lost in enumerate(flags):
            assert adapter.observe(seq, seq * 20.0, lost) == reference.observe(
                seq, seq * 20.0, lost
            )
            assert adapter.window_loss == sum(reference._window) / len(reference._window)
