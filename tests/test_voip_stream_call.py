"""Tests for the packet-level voice pipeline under the call runtime —
media sessions over one path, the fixed-depth and adaptive playout
buffer, the diversity merge and FEC recovery — and for the call runtime
itself.  (Class names predate the move onto ``repro.media``.)"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.media import (
    AdaptiveJitterBuffer,
    JitterBufferConfig,
    MediaPlaneConfig,
    PathWindow,
    run_media_session,
    score_trace,
)
from repro.media import call as media_call
from repro.media.call import (
    CallConfig,
    PathQualityProcess,
    VoiceCall,
    call_paths_from_selection,
    merge_diverse_traces,
    recover_with_parity,
)
from tests.oracles import tiny_scenario
from tests.test_media import _loss_rate, _trace


def _path(base_one_way_ms, base_loss, seed=0, **constants):
    """A :class:`PathQualityProcess` built with congestion constants of
    ``repro.media.call`` replaced (``CONGEST_PROBABILITY=0.0``: a path
    that never congests)."""
    with pytest.MonkeyPatch.context() as patch:
        for name, value in constants.items():
            patch.setattr(media_call, name, value)
        return PathQualityProcess(base_one_way_ms, base_loss, seed=seed)


def stream(one_way_ms, loss, duration_ms=10_000.0, jitter=6.0, seed=0, call_id=1):
    """One direction of a fixed-codec voice stream over a fixed path."""
    return run_media_session(
        call_id,
        duration_ms,
        [PathWindow(0.0, 2.0 * one_way_ms, loss)],
        config=MediaPlaneConfig(jitter_mean_ms=jitter, adaptation=None),
        seed=seed,
    ).trace


def fixed(depth_ms):
    return JitterBufferConfig(min_depth_ms=depth_ms, max_depth_ms=depth_ms)


def play(trace, config=JitterBufferConfig()):
    return AdaptiveJitterBuffer(config).play(trace)


def heard_loss(playout):
    """Network loss plus late-discard loss — what reaches the decoder."""
    return float(np.mean(playout.effective_loss_flags))


def mean_depth(playout):
    return float(np.mean([f.depth_ms for f in playout.frames]))


def mean_delay(trace, playout):
    return float(np.mean([
        p.playout_ms - f.sent_ms
        for f, p in zip(trace.frames, playout.frames) if p.status == "played"
    ]))



class TestSimulateStream:
    def test_packet_count_and_spacing(self):
        trace = stream(50.0, 0.0, duration_ms=1000.0)
        assert len(trace.frames) == 50
        gaps = {round(b.sent_ms - a.sent_ms, 6) for a, b in zip(trace.frames, trace.frames[1:])}
        assert gaps == {20.0}

    def test_zero_loss_all_arrive(self):
        trace = stream(50.0, 0.0, duration_ms=2000.0)
        assert all(not f.lost for f in trace.frames)
        for f in trace.frames:
            assert f.arrival_ms >= f.sent_ms + 50.0

    def test_full_loss(self):
        assert all(f.lost for f in stream(50.0, 1.0, duration_ms=1000.0).frames)

    def test_loss_rate_statistics(self):
        assert 0.15 < _loss_rate(stream(50.0, 0.2, duration_ms=60_000.0, seed=3)) < 0.25

    def test_deterministic_by_seed(self):
        assert stream(50.0, 0.1, seed=5) == stream(50.0, 0.1, seed=5)
        assert stream(50.0, 0.1, seed=5) != stream(50.0, 0.1, seed=6)

    def test_invalid_inputs(self):
        with pytest.raises(ConfigurationError):
            PathWindow(0.0, -1.0, 0.0)
        with pytest.raises(ConfigurationError):
            PathWindow(0.0, 10.0, 1.5)
        with pytest.raises(ConfigurationError):
            stream(10.0, 0.0, duration_ms=0)
        with pytest.raises(ConfigurationError):
            MediaPlaneConfig(jitter_mean_ms=-1.0)


class TestDiversity:
    def test_earlier_copy_wins(self):
        fast = stream(30.0, 0.0, duration_ms=1000.0, jitter=0.0)
        slow = stream(90.0, 0.0, duration_ms=1000.0, jitter=0.0, call_id=2)
        for f in merge_diverse_traces(slow, fast).frames:
            assert f.arrival_ms == pytest.approx(f.sent_ms + 30.0)

    def test_survives_single_path_loss(self):
        lossy = stream(30.0, 1.0, duration_ms=1000.0)
        clean = stream(90.0, 0.0, duration_ms=1000.0, call_id=2)
        assert all(not f.lost for f in merge_diverse_traces(lossy, clean).frames)

    def test_lost_on_both(self):
        a = stream(30.0, 1.0, duration_ms=500.0)
        b = stream(60.0, 1.0, duration_ms=500.0, call_id=2)
        merged = merge_diverse_traces(a, b)
        assert len(merged.frames) == len(a.frames)
        assert all(f.lost for f in merged.frames)

    def test_mismatched_streams_rejected(self):
        a = stream(30.0, 0.0, duration_ms=500.0)
        b = stream(30.0, 0.0, duration_ms=1000.0)
        with pytest.raises(ConfigurationError):
            merge_diverse_traces(a, b)

    @given(st.floats(0.0, 0.6), st.floats(0.0, 0.6))
    @settings(max_examples=30, deadline=None)
    def test_diversity_never_increases_loss(self, loss_a, loss_b):
        a = stream(40.0, loss_a, duration_ms=5000.0, seed=1)
        b = stream(60.0, loss_b, duration_ms=5000.0, seed=1, call_id=2)
        assert _loss_rate(merge_diverse_traces(a, b)) <= min(_loss_rate(a), _loss_rate(b))


class TestPlayoutBuffer:
    def test_deep_buffer_plays_everything(self):
        result = play(stream(50.0, 0.0, duration_ms=2000.0), fixed(500.0))
        assert result.late == 0
        assert result.played == len(result.frames)

    def test_shallow_buffer_discards_late(self):
        result = play(stream(50.0, 0.0, duration_ms=5000.0, jitter=30.0), fixed(1.0))
        assert result.late > 0
        assert result.played + result.late + result.lost == len(result.frames)

    def test_effective_loss_combines(self):
        trace = stream(50.0, 0.1, jitter=20.0, seed=2)
        assert heard_loss(play(trace, fixed(10.0))) > max(0.1, _loss_rate(trace))

    def test_all_lost_stream(self):
        trace = stream(50.0, 1.0, duration_ms=500.0)
        assert play(trace).played == 0
        assert score_trace(trace).mos == 1.0  # the floor of the scale

    def test_depth_delay_tradeoff(self):
        # A deeper buffer lowers loss but raises mouth-to-ear delay.
        trace = stream(60.0, 0.0, jitter=25.0, seed=4)
        shallow, deep = play(trace, fixed(5.0)), play(trace, fixed(120.0))
        assert heard_loss(deep) <= heard_loss(shallow)
        assert mean_delay(trace, deep) > mean_delay(trace, shallow)
        assert score_trace(trace, fixed(120.0)).effective_loss <= (
            score_trace(trace, fixed(5.0)).effective_loss
        )

    def test_score_playout_reasonable(self):
        trace = stream(40.0, 0.002, duration_ms=5000.0, seed=5)
        assert 3.5 < score_trace(trace, fixed(40.0)).mos <= 4.5


class TestPathQualityProcess:
    def test_clear_state_matches_base(self):
        process = _path(50.0, 0.01, seed=1, CONGEST_PROBABILITY=0.0)
        for _ in range(10):
            state = process.step()
            assert state.one_way_delay_ms == 50.0
            assert state.loss_rate == pytest.approx(0.01)

    def test_congestion_raises_delay_and_loss(self):
        process = _path(50.0, 0.01, seed=1, CONGEST_PROBABILITY=1.0, RECOVER_PROBABILITY=0.0)
        state = process.step()
        assert state.one_way_delay_ms > 50.0
        assert state.loss_rate > 0.01


class TestVoiceCall:
    def _paths(self, n=3, congest=0.0, seed=0):
        return [
            _path(60.0 + 15.0 * i, 0.003, seed=seed + i, CONGEST_PROBABILITY=congest)
            for i in range(n)
        ]

    def test_stable_call_no_switches(self):
        call = VoiceCall(self._paths(congest=0.0), CallConfig(windows=10, seed=1))
        outcome = call.run()
        assert outcome.switches == 0
        assert outcome.mean_mos > 3.6
        assert outcome.satisfied_fraction == 1.0

    def test_needs_at_least_one_path(self):
        with pytest.raises(ConfigurationError):
            VoiceCall([], CallConfig())

    def test_switching_recovers_from_congestion(self):
        # Path 0 is permanently congested from window 0; switching must
        # move off it and recover quality.
        congested = dict(
            CONGEST_PROBABILITY=1.0, RECOVER_PROBABILITY=0.0,
            CONGESTION_DELAY_MS=300.0, CONGESTION_LOSS=0.15,
        )
        bad = _path(60.0, 0.003, seed=1, **congested)
        good = _path(75.0, 0.003, seed=2, CONGEST_PROBABILITY=0.0)
        with_switching = VoiceCall(
            [bad, good], CallConfig(windows=12, use_switching=True, seed=3)
        ).run()
        bad2 = _path(60.0, 0.003, seed=1, **congested)
        good2 = _path(75.0, 0.003, seed=2, CONGEST_PROBABILITY=0.0)
        without = VoiceCall(
            [bad2, good2], CallConfig(windows=12, use_switching=False, seed=3)
        ).run()
        assert with_switching.switches >= 1
        assert with_switching.mean_mos > without.mean_mos
        assert with_switching.windows[-1].active_path == 1

    def test_diversity_improves_lossy_call(self):
        def paths(seed):
            return [
                _path(60.0, 0.08, seed=seed, CONGEST_PROBABILITY=0.0),
                _path(70.0, 0.08, seed=seed + 1, CONGEST_PROBABILITY=0.0),
            ]

        plain = VoiceCall(
            paths(1), CallConfig(windows=8, use_switching=False, use_diversity=False, seed=5)
        ).run()
        diverse = VoiceCall(
            paths(1), CallConfig(windows=8, use_switching=False, use_diversity=True, seed=5)
        ).run()
        assert diverse.mean_mos > plain.mean_mos
        assert all(w.effective_loss <= 0.06 for w in diverse.windows)

    def test_windows_recorded(self):
        outcome = VoiceCall(self._paths(), CallConfig(windows=7, seed=2)).run()
        assert [w.window for w in outcome.windows] == list(range(7))


class TestCallPathsFromSelection:
    def test_builds_processes_from_selection(self):
        from repro.core import ASAPSystem, ASAPConfig
        from repro.core.config import derive_k_hops

        scenario = tiny_scenario(seed=11)
        system = ASAPSystem(scenario, ASAPConfig(k_hops=derive_k_hops(scenario.matrices)))
        m = scenario.matrices
        latent = np.argwhere(m.rtt_ms > 300)
        if latent.size == 0:
            pytest.skip("no latent pair")
        a, b = (int(x) for x in latent[0])
        clusters = scenario.clusters.all_clusters()
        session = system.call(clusters[a].hosts[0].ip, clusters[b].hosts[0].ip)
        if session.selection is None or not len(session.selection.one_hop):
            pytest.skip("no one-hop candidates")
        paths = call_paths_from_selection(session.selection, m, a, b)
        assert 1 <= len(paths) <= 4
        outcome = VoiceCall(paths, CallConfig(windows=5, seed=1)).run()
        assert outcome.mean_mos > 1.0


class TestAdaptivePlayoutBuffer:
    def _stream(self, jitter, duration=20_000.0, loss=0.0, seed=6):
        return stream(60.0, loss, duration_ms=duration, jitter=jitter, seed=seed)

    def test_low_jitter_tight_deadline(self):
        trace = self._stream(jitter=1.0)
        adaptive, fixed_deep = play(trace), play(trace, fixed(120.0))
        # On a calm path the adaptive buffer plays out far earlier.
        assert mean_delay(trace, adaptive) < mean_delay(trace, fixed_deep)
        assert heard_loss(adaptive) < 0.05

    def test_high_jitter_deepens(self):
        calm, jittery = self._stream(jitter=1.0), self._stream(jitter=40.0)
        assert mean_depth(play(jittery)) > mean_depth(play(calm))
        assert mean_delay(jittery, play(jittery)) > mean_delay(calm, play(calm))

    def test_beats_shallow_fixed_on_jitter(self):
        trace = self._stream(jitter=30.0)
        assert heard_loss(play(trace)) < heard_loss(play(trace, fixed(2.0)))

    def test_accounting_sums(self):
        result = play(self._stream(jitter=10.0, loss=0.1))
        assert result.lost > 0
        assert result.played + result.late + result.lost == len(result.frames)

    def test_all_lost(self):
        trace = self._stream(jitter=5.0, loss=1.0, duration=1_000.0)
        assert play(trace).played == 0
        assert score_trace(trace).mos == 1.0

    def test_invalid_params(self):
        with pytest.raises(ConfigurationError):
            JitterBufferConfig(min_depth_ms=-1.0)


class TestFECRecovery:
    def _voice(self, loss, duration=10_000.0, seed=9):
        return stream(50.0, loss, duration_ms=duration, jitter=5.0, seed=seed)

    def _secondary(self, voice, loss=0.0, seed=9):
        return stream(
            70.0, loss, duration_ms=voice.duration_ms, jitter=5.0, seed=seed, call_id=2
        )

    def test_recovers_isolated_losses(self):
        voice = self._voice(loss=0.05)
        recovered = recover_with_parity(voice, self._secondary(voice))
        before = sum(1 for f in voice.frames if f.lost)
        after = sum(1 for f in recovered.frames if f.lost)
        assert before > 0
        assert after < before
        # Frames that arrived on their own are untouched.
        for was, now in zip(voice.frames, recovered.frames):
            assert was.lost or was == now

    def test_cannot_recover_double_loss_in_group(self):
        voice = _trace([None, None, 90.0, 110.0])
        secondary = _trace([50.0, 70.0, 90.0, 130.0])
        recovered = recover_with_parity(voice, secondary)
        assert recovered == voice

    def test_recovery_waits_for_all_pieces(self):
        voice = _trace([None, 70.0, 95.0, 200.0])
        secondary = _trace([None, None, None, 130.0])  # only the parity slot matters
        recovered = recover_with_parity(voice, secondary)
        assert recovered.frames[0].arrival_ms == 200.0  # last surviving piece
        late_parity = _trace([None, None, None, 260.0])
        assert recover_with_parity(voice, late_parity).frames[0].arrival_ms == 260.0

    def test_lost_parity_recovers_nothing(self, monkeypatch):
        monkeypatch.setattr(media_call, "FEC_GROUP_SIZE", 2)
        voice = _trace([None, 60.0])
        secondary = _trace([50.0, None])  # the group's last slot carried the parity
        assert recover_with_parity(voice, secondary).frames[0].lost

    def test_parity_count_validated(self):
        voice = self._voice(loss=0.0, duration=1000.0)
        with pytest.raises(ConfigurationError):
            recover_with_parity(voice, _trace([]))

    def test_short_last_group_uses_its_own_last_slot(self):
        voice = _trace([40.0, 60.0, 80.0, 100.0, None, 140.0])
        secondary = _trace([None, None, None, None, None, 190.0])
        recovered = recover_with_parity(voice, secondary)
        assert recovered.frames[4].arrival_ms == 190.0

    def test_fec_improves_playout_mos(self):
        voice = self._voice(loss=0.08, duration=30_000.0)
        recovered = recover_with_parity(voice, self._secondary(voice, loss=0.08))
        assert score_trace(recovered, fixed(60.0)).mos > score_trace(voice, fixed(60.0)).mos


class TestVoiceCallFEC:
    def _lossy_paths(self, seed=1):
        return [
            _path(60.0, 0.08, seed=seed, CONGEST_PROBABILITY=0.0),
            _path(70.0, 0.08, seed=seed + 1, CONGEST_PROBABILITY=0.0),
        ]

    def test_fec_improves_lossy_call(self):
        plain = VoiceCall(
            self._lossy_paths(),
            CallConfig(windows=8, use_switching=False, seed=5),
        ).run()
        fec = VoiceCall(
            self._lossy_paths(),
            CallConfig(windows=8, use_switching=False, use_fec=True, seed=5),
        ).run()
        assert fec.mean_mos > plain.mean_mos

    def test_fec_cheaper_than_diversity_but_weaker(self):
        # Full duplication recovers more than 1-per-group FEC.
        fec = VoiceCall(
            self._lossy_paths(),
            CallConfig(windows=8, use_switching=False, use_fec=True, seed=5),
        ).run()
        diversity = VoiceCall(
            self._lossy_paths(),
            CallConfig(windows=8, use_switching=False, use_diversity=True, seed=5),
        ).run()
        assert diversity.mean_mos >= fec.mean_mos - 0.05

    def test_fec_and_diversity_exclusive(self):
        with pytest.raises(ConfigurationError):
            CallConfig(use_fec=True, use_diversity=True)

    def test_single_path_fec_noop(self):
        single = [_path(60.0, 0.05, seed=2, CONGEST_PROBABILITY=0.0)]
        outcome = VoiceCall(
            single, CallConfig(windows=4, use_switching=False, use_fec=True, seed=2)
        ).run()
        assert len(outcome.windows) == 4


class TestVoiceCallDeterminism:
    VARIANTS = {
        "static": dict(use_switching=False),
        "switching": dict(use_switching=True),
        "fec": dict(use_switching=False, use_fec=True),
        "diversity": dict(use_switching=False, use_diversity=True),
        "both": dict(use_switching=True, use_diversity=True),
    }

    def _run(self, seed, **variant):
        paths = [
            _path(60.0 + 10.0 * i, 0.04, seed=seed + i, CONGEST_PROBABILITY=0.3)
            for i in range(3)
        ]
        return VoiceCall(paths, CallConfig(windows=6, seed=seed, **variant)).run()

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_same_seed_runs_equal_window_for_window(self, variant):
        first = self._run(4, **self.VARIANTS[variant])
        assert first.windows == self._run(4, **self.VARIANTS[variant]).windows
        assert first.windows != self._run(5, **self.VARIANTS[variant]).windows
