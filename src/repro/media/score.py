"""ReceivedTrace → measured MOS.

The closed-form evaluation feeds an *assumed* (RTT, loss) pair into
the E-model; this scorer feeds *measured* per-window delay and
PLC-adjusted loss from an actual received-frame trace, then charges
whole windows with no playable media as outages through
:func:`repro.voip.outage.account_outages`.

Per window of ``window_ms`` (bucketed by send time):

- effective loss = mean PLC weight of the window's frames, where the
  PLC weight sequence comes from :func:`repro.media.plc.conceal` over
  the jitter buffer's reclassified loss flags (late = lost);
- delay = mean ``playout − sent`` of played frames, fed to an E-model
  configured with ``jitter_buffer_ms = 0`` — the buffer's real depth
  is already inside the measured delay, so the closed-form allowance
  must not be charged twice;
- codec = the window's dominant codec (adaptation can switch
  mid-trace).

On a zero-fault fixed-RTT path this agrees with the closed-form
:func:`repro.voip.quality.mos_of_path` score within
:data:`MEASURED_MOS_TOLERANCE` (see docs/media.md): the buffer floor
``min_depth_ms`` equals the closed-form allowance by default, leaving
only window-quantization rounding.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, compress, count, repeat
from operator import floordiv, itemgetter, ne, not_, sub
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.media.frames import ReceivedTrace, _codec_by_name
from repro.media.jitterbuf import AdaptiveJitterBuffer, JitterBufferConfig, PlayoutResult
from repro.media.plc import ConcealmentReport, conceal
from repro.voip.emodel import EModel, EModelConfig
from repro.voip.outage import OutageWindow, account_outages

#: Documented agreement bound between measured-trace MOS and the
#: closed-form E-model score on a zero-fault, zero-jitter fixed-RTT
#: path (same codec, same loss).  See docs/media.md.
MEASURED_MOS_TOLERANCE = 0.1

#: Default scoring window (ms of send time per MOS sample).
DEFAULT_WINDOW_MS = 1000.0


@dataclass(frozen=True)
class WindowScore:
    """Measured quality of one scoring window."""

    start_ms: float
    end_ms: float
    frames: int
    played: int
    effective_loss: float         # PLC-weighted, late-as-loss
    mean_delay_ms: float          # mouth-to-ear minus codec delay; 0 if outage
    codec: str                    # dominant codec of the window
    mos: float                    # 0.0 marks an outage window

    @property
    def is_outage(self) -> bool:
        return self.played == 0


@dataclass(frozen=True)
class MeasuredScore:
    """Trace-level measured quality."""

    mos: float                    # outage-accounted, time-weighted
    base_mos: float               # frame-weighted mean of flowing windows
    windows: Tuple[WindowScore, ...]
    outage_windows: Tuple[OutageWindow, ...]
    concealed_rate: float         # PLC-masked frames / all frames
    effective_loss: float         # whole-trace PLC-weighted loss
    late_frames: int
    lost_frames: int

    def to_dict(self) -> dict:
        """Stable plain-dict form (CI byte-diffs JSON dumps of this)."""
        return {
            "mos": round(self.mos, 6),
            "base_mos": round(self.base_mos, 6),
            "concealed_rate": round(self.concealed_rate, 6),
            "effective_loss": round(self.effective_loss, 6),
            "late_frames": self.late_frames,
            "lost_frames": self.lost_frames,
            "outages": [
                {"start_ms": round(w.start_ms, 3), "end_ms": round(w.end_ms, 3)}
                for w in self.outage_windows
            ],
            "windows": [
                {
                    "start_ms": round(w.start_ms, 3),
                    "end_ms": round(w.end_ms, 3),
                    "frames": w.frames,
                    "played": w.played,
                    "effective_loss": round(w.effective_loss, 6),
                    "mean_delay_ms": round(w.mean_delay_ms, 3),
                    "codec": w.codec,
                    "mos": round(w.mos, 6),
                }
                for w in self.windows
            ],
        }


def score_trace(
    trace: ReceivedTrace,
    jitterbuf: JitterBufferConfig = JitterBufferConfig(),
    window_ms: float = DEFAULT_WINDOW_MS,
    playout: Optional[PlayoutResult] = None,
) -> MeasuredScore:
    """Score a received trace window by window.

    Pass ``playout`` to reuse a playout already computed by the caller
    (the session loop samples buffer depth as telemetry); otherwise the
    trace is played through a fresh buffer here.
    """
    if window_ms <= 0:
        raise ConfigurationError("window_ms must be positive")
    if not trace.frames:
        raise ConfigurationError("cannot score an empty trace")
    if playout is None:
        playout = AdaptiveJitterBuffer(jitterbuf).play(trace)
    if len(playout.frames) != len(trace.frames):
        raise ConfigurationError("playout does not cover the trace")
    unplayed = playout.effective_loss_flags
    report: ConcealmentReport = conceal(unplayed)

    duration = trace.duration_ms
    window_count = max(1, int(-(-duration // window_ms)))  # ceil
    # Per-frame columns, each built in one C-level pass; a window reads
    # them through its slices.
    sent = list(map(itemgetter(1), trace.frames))
    codecs = list(map(itemgetter(3), trace.frames))
    delays = list(map(sub, map(itemgetter(2), playout.frames), sent))

    windows: List[WindowScore] = []
    outages: List[OutageWindow] = []
    # Windows with no frames even sent (codec switch pacing gap at the
    # trace tail) have no members: nothing to score, not an outage.
    for idx, parts in window_members(sent, window_ms, window_count):
        start = idx * window_ms
        end = min((idx + 1) * window_ms, duration)
        weights = window_values(report.weights, parts)
        frames = len(weights)
        played = map(not_, window_values(unplayed, parts))
        played_delays = list(compress(window_values(delays, parts), played))
        eff_loss = sum(weights) / frames
        codec_name = _dominant_codec(window_values(codecs, parts))
        if not played_delays:
            outages.append(OutageWindow(start_ms=start, end_ms=end))
            windows.append(
                WindowScore(
                    start_ms=start, end_ms=end, frames=frames, played=0,
                    effective_loss=round(eff_loss, 6), mean_delay_ms=0.0,
                    codec=codec_name, mos=0.0,
                )
            )
            continue
        mean_delay = sum(played_delays) / len(played_delays)
        emodel = EModel(EModelConfig(
            codec=_codec_by_name(codec_name), jitter_buffer_ms=0.0,
        ))
        mos = emodel.mos(mean_delay, min(1.0, eff_loss))
        windows.append(
            WindowScore(
                start_ms=start, end_ms=end, frames=frames,
                played=len(played_delays), effective_loss=round(eff_loss, 6),
                mean_delay_ms=round(mean_delay, 3), codec=codec_name,
                mos=round(mos, 6),
            )
        )

    flowing = [w for w in windows if not w.is_outage]
    if flowing:
        total_frames = sum(w.frames for w in flowing)
        base_mos = sum(w.mos * w.frames for w in flowing) / total_frames
    else:
        base_mos = 1.0  # nothing ever played; floor of the MOS scale
    impact = account_outages(base_mos, duration, outages)
    return MeasuredScore(
        mos=round(impact.effective_mos, 6),
        base_mos=round(base_mos, 6),
        windows=tuple(windows),
        outage_windows=tuple(outages),
        concealed_rate=round(report.concealed_rate, 6),
        effective_loss=round(report.effective_loss, 6),
        late_frames=playout.late,
        lost_frames=playout.lost,
    )


def window_members(
    sent_ms: Sequence[float], window_ms: float, window_count: int
) -> List[Tuple[int, List[slice]]]:
    """``(window index, slices of frame positions)`` of every non-empty
    window, in window order.

    Frame *i* falls in window ``min(int(sent_ms[i] // window_ms),
    window_count - 1)``.  Frames come in send order, so a window is one
    run of equal indices — one slice — and only the run boundaries are
    visited in Python.  A trace whose send times step back (lost frames'
    interpolated times in a wire trace) can visit a window twice; its
    slices then follow frame order.  Frames before time 0 fall in no
    window.
    """
    keys = list(map(int, map(floordiv, sent_ms, repeat(window_ms))))
    starts = list(compress(count(), map(ne, keys, chain([None], keys))))
    last = window_count - 1
    runs: Dict[int, List[slice]] = {}
    for lo, hi in zip(starts, starts[1:] + [len(keys)]):
        runs.setdefault(min(keys[lo], last), []).append(slice(lo, hi))
    return [(idx, parts) for idx, parts in sorted(runs.items()) if idx >= 0]


def window_values(column: Sequence, parts: List[slice]) -> list:
    """A window's values of a per-frame column, in frame order."""
    return list(chain.from_iterable(map(column.__getitem__, parts)))


def _dominant_codec(names: List[str]) -> str:
    counts = Counter(names)
    best = max(counts.values())
    # Deterministic tie-break: first codec (in frame order) at the max.
    for name in names:
        if counts[name] == best:
            return name
    return names[0]
