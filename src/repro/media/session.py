"""One end-to-end media session: frames → channel → buffer → PLC → MOS.

:func:`run_media_session` is the media plane's single entry point for
the conference scenario, the voice-call runtime and the CLI.  The caller
describes the *path* as a piecewise-constant sequence of
:class:`PathWindow` segments (RTT + loss per segment, session-relative
times) plus optional hard outage windows (failovers: nothing flows);
the session deterministically synthesizes the frame arrival process,
plays it through the adaptive jitter buffer, applies PLC accounting,
drives the codec adapter, and scores the received trace.

Determinism contract: everything derives from ``derive_rng(seed,
"media", str(call_id))`` and the configuration — same inputs, byte-
identical :class:`ReceivedTrace`, telemetry samples and MOS.  The RNG
draws are fixed per loss mode: one uniform per frame i.i.d. or two
Gilbert–Elliott, then, when jitter is on, one exponential per frame the
*channel* kept — drawn before an outage overrides the frame, so the
draws never depend on outage placement and adding an outage changes
only the frames inside it (with adaptation off; a switch it triggers
re-paces the frames after it).

The adapter sees loss feedback with zero delay (the receiver's view,
not a delayed RTCP-style report) — a documented idealization that
keeps switch timing deterministic and easy to assert on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.media.adapt import AdaptationPolicy, CodecAdapter, CodecSwitch
from repro.media.frames import ReceivedFrame, ReceivedTrace
from repro.media.jitterbuf import AdaptiveJitterBuffer, JitterBufferConfig, PlayoutResult
from repro.media.plc import conceal
from repro.media.score import (
    DEFAULT_WINDOW_MS, MeasuredScore, score_trace, window_members, window_values,
)
from repro.obs.timeseries import NULL_TIMELINE
from repro.obs.trace import NULL_TRACE_SPAN
from repro.util.rng import derive_rng
from repro.voip.codecs import G729A_VAD
from repro.voip.outage import OutageWindow


@dataclass(frozen=True)
class PathWindow:
    """Path conditions from ``start_ms`` (session-relative) onward."""

    start_ms: float
    rtt_ms: float
    loss_rate: float

    def __post_init__(self) -> None:
        if self.start_ms < 0 or self.rtt_ms < 0:
            raise ConfigurationError("start_ms and rtt_ms must be non-negative")
        if not 0.0 <= self.loss_rate <= 1.0:
            raise ConfigurationError("loss_rate must be in [0, 1]")


@dataclass(frozen=True)
class MediaPlaneConfig:
    """Everything the media plane needs beyond the path itself."""

    jitter_mean_ms: float = 6.0
    # Mean loss-burst length in frames for the Gilbert–Elliott channel;
    # ``None`` drops losses i.i.d. at each segment's rate instead.
    burst_frames: Optional[float] = None
    jitterbuf: JitterBufferConfig = field(default_factory=JitterBufferConfig)
    # ``None`` disables codec switching entirely.
    adaptation: Optional[AdaptationPolicy] = field(default_factory=AdaptationPolicy)
    window_ms: float = DEFAULT_WINDOW_MS

    def __post_init__(self) -> None:
        if self.jitter_mean_ms < 0:
            raise ConfigurationError("jitter_mean_ms must be non-negative")
        if self.burst_frames is not None and self.burst_frames < 1.0:
            raise ConfigurationError("burst_frames must be >= 1")
        if self.window_ms <= 0:
            raise ConfigurationError("window_ms must be positive")


@dataclass(frozen=True)
class MediaResult:
    """Everything one media session produced."""

    call_id: int
    duration_ms: float
    trace: ReceivedTrace
    playout: PlayoutResult
    score: MeasuredScore
    switches: Tuple[CodecSwitch, ...]

    @property
    def mos(self) -> float:
        return self.score.mos


def _segment_channel(seg: PathWindow, r: Optional[float]) -> Tuple[float, float, float]:
    """``(one-way delay, loss rate, Gilbert–Elliott enter-bad probability)``.

    The enter-bad probability matches the segment's mean loss at the
    burst length ``1 / r`` (0.0 when ``r`` is ``None``: i.i.d. loss).
    """
    loss = seg.loss_rate
    if r is None or loss <= 0:
        p = 0.0
    else:
        p = 1.0 if loss >= 1 else min(1.0, r * loss / (1.0 - loss))
    return seg.rtt_ms / 2.0, loss, p


def run_media_session(
    call_id: int,
    duration_ms: float,
    path: Sequence[PathWindow],
    outages: Sequence[OutageWindow] = (),
    config: MediaPlaneConfig = MediaPlaneConfig(),
    seed: int = 0,
    timeline=NULL_TIMELINE,
    span=NULL_TRACE_SPAN,
    **tags: str,
) -> MediaResult:
    """Run one direction of a call's media over a described path.

    ``path`` segments, ``outages``, telemetry timestamps and trace points
    all use session-relative times.  ``tags`` label every telemetry
    sample (e.g. ``leg="a-b"``).
    """
    if duration_ms <= 0:
        raise ConfigurationError("duration_ms must be positive")
    if not path:
        raise ConfigurationError("need at least one PathWindow")
    if sorted(path, key=lambda s: s.start_ms) != list(path):
        raise ConfigurationError("path segments must be sorted by start_ms")

    rng = derive_rng(seed, "media", str(call_id))
    uniform, exponential = rng.random, rng.exponential
    adapter = CodecAdapter(config.adaptation) if config.adaptation else None
    # With adaptation on, the policy's primary codec governs pacing; a
    # fixed-codec session sends G.729A+VAD.  Each frame advances the send
    # clock by its own codec's interval, so a switch changes the pacing
    # of every later frame, as a real sender's renegotiation does.
    codec = adapter.codec if adapter is not None else G729A_VAD
    codec_name, interval = codec.name, codec.packet_interval_ms()
    jitter_mean = config.jitter_mean_ms
    # Gilbert–Elliott: per-frame leave-bad probability ``r`` at the
    # configured burst length; ``None`` drops losses i.i.d.
    r = None if config.burst_frames is None else 1.0 / config.burst_frames
    cuts = [(w.start_ms, w.end_ms) for w in outages]

    # Segment cursor: the active segment is the last one starting at or
    # before the frame's send time (the first one before any starts);
    # segment i gives way at ``ends[i]``, the next one's start.
    ends = [seg.start_ms for seg in path[1:]] + [float("inf")]
    segment = 0
    half_rtt, loss, p = _segment_channel(path[0], r)

    received: List[ReceivedFrame] = []
    append = received.append
    switches: List[CodecSwitch] = []
    ge_bad = False  # Gilbert–Elliott channel state, carried across segments
    sequence = 0
    next_ms = 0.0
    while next_ms < duration_ms:
        sent = round(next_ms, 3)
        next_ms += interval
        while ends[segment] <= sent:
            segment += 1
            half_rtt, loss, p = _segment_channel(path[segment], r)
        if r is None:
            lost = uniform() < loss
        else:
            # Gilbert channel: good never drops, bad always drops.
            transition = uniform()
            emission = uniform()  # reserved draw keeps alignment with loss_bad < 1 variants
            if ge_bad:
                if transition < r:
                    ge_bad = False
            elif transition < p:
                ge_bad = True
            lost = ge_bad and emission < 1.0
        # Every frame the channel kept draws its jitter, so an outage
        # shifts no other frame's draws.
        jitter = exponential(jitter_mean) if not lost and jitter_mean > 0 else 0.0
        if cuts and any(lo <= sent < hi for lo, hi in cuts):
            lost = True  # hard outage overrides the channel (draws already taken)
        if lost:
            append(ReceivedFrame(sequence, sent, None, codec_name))
        else:
            append(ReceivedFrame(sequence, sent, round(sent + half_rtt + jitter, 3), codec_name))
        if adapter is not None:
            switch = adapter.observe(sequence, sent, lost)
            if switch is not None:
                switches.append(switch)
                codec = adapter.codec
                codec_name, interval = codec.name, codec.packet_interval_ms()
                span.point(
                    "media.codec_switch",
                    at_ms=switch.at_ms,
                    seq=switch.sequence,
                    from_codec=switch.from_codec,
                    to_codec=switch.to_codec,
                    window_loss=switch.window_loss,
                )
        sequence += 1

    trace = ReceivedTrace(call_id=call_id, frames=tuple(received))
    playout = AdaptiveJitterBuffer(config.jitterbuf).play(trace)
    score = score_trace(
        trace, jitterbuf=config.jitterbuf,
        window_ms=config.window_ms, playout=playout,
    )

    if timeline:
        report = conceal(playout.effective_loss_flags)
        window_ms = config.window_ms
        window_count = max(1, int(-(-trace.duration_ms // window_ms)))
        sent_ms = [f.sent_ms for f in trace.frames]
        switch_iter = iter(switches)
        pending = next(switch_iter, None)
        cumulative_switches = 0
        depths = [f.depth_ms for f in playout.frames]
        for idx, parts in window_members(sent_ms, window_ms, window_count):
            end = min((idx + 1) * window_ms, trace.duration_ms)
            window_depths = window_values(depths, parts)
            frames = len(window_depths)
            depth = sum(window_depths) / frames
            concealed = window_values(report.statuses, parts).count("concealed")
            while pending is not None and pending.at_ms < (idx + 1) * window_ms:
                cumulative_switches += 1
                pending = next(switch_iter, None)
            timeline.sample("media.jitterbuf_depth_ms", end, depth, **tags)
            timeline.sample(
                "media.concealed_loss_rate", end, concealed / frames, **tags
            )
            timeline.sample("media.codec_switches", end, cumulative_switches, **tags)
        for w in score.windows:
            if not w.is_outage:
                timeline.sample("media.window_mos", w.end_ms, w.mos, **tags)

    return MediaResult(
        call_id=call_id,
        duration_ms=trace.duration_ms,
        trace=trace,
        playout=playout,
        score=score,
        switches=tuple(switches),
    )
