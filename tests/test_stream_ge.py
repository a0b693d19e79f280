"""The media session's loss channel — Gilbert–Elliott bursts and the
i.i.d. mode, with their fixed RNG draw budgets — and path-diversity
merge edge cases.  (Class names predate the move onto ``repro.media``.)"""

from functools import lru_cache

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.media.jitterbuf import AdaptiveJitterBuffer
from repro.media.frames import ReceivedFrame, ReceivedTrace
from repro.media.session import MediaPlaneConfig, PathWindow, run_media_session
from repro.util.rng import derive_rng
from repro.media.call import merge_diverse_traces
from tests.test_media import _loss_rate, _trace


@lru_cache(maxsize=None)
def channel(loss, burst=4.0, frames=2_000, seed=0, call_id=1, one_way_ms=40.0, jitter=6.0):
    """Received trace of ``frames`` 20 ms frames through the loss channel."""
    return run_media_session(
        call_id,
        frames * 20.0,
        [PathWindow(0.0, 2.0 * one_way_ms, loss)],
        config=MediaPlaneConfig(burst_frames=burst, jitter_mean_ms=jitter, adaptation=None),
        seed=seed,
    ).trace


def loss_runs(trace):
    runs, current = [], 0
    for frame in trace.frames:
        if frame.lost:
            current += 1
        elif current:
            runs.append(current)
            current = 0
    if current:
        runs.append(current)
    return runs


class TestGilbertElliottConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            MediaPlaneConfig(burst_frames=0.5)  # a burst is at least one frame
        with pytest.raises(ConfigurationError):
            PathWindow(0.0, 80.0, -0.1)
        assert _loss_rate(channel(0.0)) == 0.0  # a loss-free segment never enters the bad state

    CHANNELS = ((0.05, 4.0), (0.20, 2.0), (0.10, 8.0))  # (mean loss, mean burst)

    def test_stationary_loss(self):
        """The onset probability is solved from the target mean loss, so
        the chain's long-run loss is the segment's loss rate at any
        burst length."""
        for loss, burst in self.CHANNELS:
            assert _loss_rate(channel(loss, burst, frames=20_000)) == pytest.approx(loss, rel=0.2)

    def test_from_loss_and_burst(self):
        """Recovery probability is 1/burst: loss runs average the
        configured burst length at any mean loss."""
        for loss, burst in self.CHANNELS:
            runs = loss_runs(channel(loss, burst, frames=20_000))
            assert np.mean(runs) == pytest.approx(burst, rel=0.25)

    def test_from_loss_and_burst_clamps_transition(self):
        # 95 % loss in one-frame bursts would need an onset probability
        # above 1: clamped, the chain alternates good/bad.
        trace = channel(0.95, burst=1.0)
        assert [f.lost for f in trace.frames[:6]] == [True, False] * 3
        assert _loss_rate(trace) == 0.5


class TestSampleGilbertElliott:
    def test_deterministic_per_seed(self):
        assert channel(0.10, seed=7) == channel(0.10, seed=7)
        assert channel(0.10, seed=7) != channel(0.10, seed=8)

    def test_matches_stationary_loss(self):
        assert _loss_rate(channel(0.10, frames=50_000)) == pytest.approx(0.10, abs=0.02)

    def test_losses_are_bursty(self):
        """Mean run length of consecutive losses tracks the configured
        burst length — the point of the two-state channel — and the
        i.i.d. mode at the same mean loss does not burst."""
        bursty = loss_runs(channel(0.10, burst=4.0, frames=50_000))
        assert np.mean(bursty) == pytest.approx(4.0, rel=0.25)
        independent = loss_runs(channel(0.10, burst=None, frames=50_000))
        assert np.mean(independent) == pytest.approx(1 / 0.9, rel=0.1)

    def test_consumes_fixed_draw_budget(self):
        """Exactly two uniforms per frame, whatever the channel state,
        then one exponential per surviving frame — the determinism
        contract every same-seed artifact relies on."""
        trace = channel(0.10, frames=500, seed=3, call_id=9)
        rng = derive_rng(3, "media", "9")
        assert 0 < _loss_rate(trace) < 1
        for frame in trace.frames:
            rng.random(2)
            if not frame.lost:
                assert frame.arrival_ms == round(
                    frame.sent_ms + 40.0 + float(rng.exponential(6.0)), 3
                )


class TestStreamConfigGE:
    def test_ge_none_is_bit_identical_to_iid_contract(self):
        """Without bursts the channel takes one uniform per frame (lost
        when below the loss rate), then the survivor's jitter draw."""
        trace = channel(0.1, burst=None, frames=100, seed=5)
        rng = derive_rng(5, "media", "1")
        for frame in trace.frames:
            assert frame.lost == bool(rng.random() < 0.1)
            if not frame.lost:
                assert frame.arrival_ms == round(
                    frame.sent_ms + 40.0 + float(rng.exponential(6.0)), 3
                )

    def test_ge_mode_deterministic_and_bursty(self):
        a = channel(0.30, burst=6.0, frames=3_000, seed=2)
        assert a == channel(0.30, burst=6.0, frames=3_000, seed=2)
        assert _loss_rate(a) == pytest.approx(0.30, abs=0.05)
        assert np.mean(loss_runs(a)) > 3.0



class TestMergeDiverseArrivals:
    def test_empty_streams(self):
        assert merge_diverse_traces(_trace([]), _trace([])) == _trace([])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            merge_diverse_traces(_trace([50.0]), _trace([]))
        with pytest.raises(ConfigurationError):
            merge_diverse_traces(_trace([]), _trace([50.0]))

    def test_sequence_mismatch_rejected(self):
        """Traces enforce gap-free sequences, so two streams disagree on
        what a sequence number carries by pacing or by codec."""
        a = _trace([50.0, 70.0])
        paced = ReceivedTrace(1, (a.frames[0], ReceivedFrame(1, 30.0, 80.0, "G.729A+VAD")))
        coded = ReceivedTrace(1, (a.frames[0], ReceivedFrame(1, 20.0, 70.0, "G.711")))
        for other in (paced, coded):
            with pytest.raises(ConfigurationError):
                merge_diverse_traces(a, other)

    def test_fully_disjoint_loss_merges_to_zero_loss(self):
        """Primary loses even frames, secondary loses odd ones: the
        merged stream hears everything."""
        primary = _trace([None if i % 2 == 0 else i * 20.0 + 50.0 for i in range(20)])
        secondary = _trace([None if i % 2 == 1 else i * 20.0 + 70.0 for i in range(20)])
        merged = merge_diverse_traces(primary, secondary)
        assert all(not f.lost for f in merged.frames)
        # Each frame keeps its single surviving copy's timestamp.
        assert merged.frames[0].arrival_ms == 70.0 and merged.frames[1].arrival_ms == 70.0

    def test_duplicate_timestamps_keep_single_copy(self):
        """Both copies arriving at the same instant collapse to one
        arrival at that timestamp (min of equals)."""
        assert merge_diverse_traces(_trace([55.0]), _trace([55.0])) == _trace([55.0])

    def test_earlier_copy_wins(self):
        assert merge_diverse_traces(_trace([90.0]), _trace([60.0])) == _trace([60.0])
        assert merge_diverse_traces(_trace([60.0]), _trace([90.0])) == _trace([60.0])

    def test_both_lost_stays_lost(self):
        assert merge_diverse_traces(_trace([None]), _trace([None])).frames[0].lost


class TestJitterBufferReclassificationDeterminism:
    def test_late_frame_reclassification_is_deterministic(self):
        """Replaying the identical trace through fresh buffers yields the
        identical played/late/lost classification, frame for frame."""
        rng = np.random.default_rng(4)
        arrivals = []
        for i in range(500):
            if rng.random() < 0.03:
                arrivals.append(None)
            else:
                arrivals.append(i * 20.0 + 60.0 + float(rng.exponential(15.0)))
        trace = ReceivedTrace(
            call_id=1,
            frames=tuple(
                ReceivedFrame(i, i * 20.0, a, "G.729A+VAD")
                for i, a in enumerate(arrivals)
            ),
        )
        a = AdaptiveJitterBuffer().play(trace)
        b = AdaptiveJitterBuffer().play(trace)
        assert a.frames == b.frames
        assert a.late > 0  # the jitter actually produced late frames
        assert [f.status for f in a.frames] == [f.status for f in b.frames]
