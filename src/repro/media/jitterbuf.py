"""Adaptive playout jitter buffer.

Tracks smoothed one-way delay and delay variation with the classic
RFC 3550-style EWMA estimators and derives a per-frame playout
deadline.  A frame that arrives after its deadline is *late* —
reclassified as effective loss for the PLC and scoring stages — so
buffer depth trades delay against loss exactly as in deployed stacks.
Pure function of the input trace: no RNG, no wall clock, deterministic
replay.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import List, NamedTuple, Tuple

from repro.errors import ConfigurationError
from repro.media.frames import ReceivedTrace


#: Delay EWMA retention.
ALPHA = 0.998
#: Deadline = depth = FACTOR * v_hat (clamped to the configured depths).
FACTOR = 4.0


@dataclass(frozen=True)
class JitterBufferConfig:
    """Playout depth bounds.

    ``min_depth_ms`` defaults to 20 ms — deliberately equal to
    :class:`repro.voip.emodel.EModelConfig`'s closed-form jitter-buffer
    allowance, so on a jitter-free path the measured mouth-to-ear delay
    matches what the analytic score already charges for.
    """

    min_depth_ms: float = 20.0
    max_depth_ms: float = 200.0

    def __post_init__(self) -> None:
        if self.min_depth_ms < 0 or self.max_depth_ms < self.min_depth_ms:
            raise ConfigurationError(
                "need 0 <= min_depth_ms <= max_depth_ms"
            )


class PlayedFrame(NamedTuple):
    """Playout outcome of one frame."""

    sequence: int
    status: str                   # "played" | "late" | "lost"
    playout_ms: float             # scheduled playout time (sim ms)
    depth_ms: float               # buffer depth in force at this frame


@dataclass(frozen=True)
class PlayoutResult:
    frames: Tuple[PlayedFrame, ...]

    @cached_property
    def _status_counts(self) -> Counter:
        return Counter(map(itemgetter(1), self.frames))

    @property
    def played(self) -> int:
        return self._status_counts["played"]

    @property
    def late(self) -> int:
        return self._status_counts["late"]

    @property
    def lost(self) -> int:
        return self._status_counts["lost"]

    @cached_property
    def effective_loss_flags(self) -> Tuple[bool, ...]:
        """Per-frame loss after reclassification (late counts as lost)."""
        return tuple([f.status != "played" for f in self.frames])


class AdaptiveJitterBuffer:
    """Streamed playout over a received trace.

    The delay estimate seeds from the first arriving frame, then
    follows the EWMA; the deadline for frame *i* is
    ``sent_i + d_hat + depth`` with ``depth = clamp(FACTOR * v_hat,
    min_depth_ms, max_depth_ms)``, never earlier than frame *i-1*'s
    playout instant (a fast-moving estimate cannot run the playout clock
    backwards).  Estimator state advances on every *arriving* frame
    (late ones included — the receiver still observes them), never on
    losses.
    """

    def __init__(self, config: JitterBufferConfig = JitterBufferConfig()) -> None:
        self.config = config
        self._d_hat: float = 0.0
        self._v_hat: float = 0.0
        self._seeded = False

    def play(self, trace: ReceivedTrace) -> PlayoutResult:
        """Run the whole trace through the buffer."""
        cfg = self.config
        a = ALPHA
        b = 1.0 - a
        factor, low, high = FACTOR, cfg.min_depth_ms, cfg.max_depth_ms
        d_hat, v_hat, seeded = self._d_hat, self._v_hat, self._seeded
        out: List[PlayedFrame] = []
        append = out.append
        previous = float("-inf")  # playout instant of the frame before
        for sequence, sent, arrival, _ in trace.frames:
            # depth = min(max(factor * v_hat, low), high)
            depth = factor * v_hat
            if low > depth:
                depth = low
            if high < depth:
                depth = high
            deadline = sent + d_hat + depth
            if deadline < previous:
                deadline = previous
            if arrival is None:
                # Nothing to observe; playout slot elapses silently.
                status = "lost"
                playout = deadline  # unseeded, d_hat is 0: sent + depth
            elif not seeded:
                # First arrival defines the delay baseline; it always
                # plays, at its own arrival plus the minimum depth.
                d_hat, v_hat, seeded = arrival - sent, 0.0, True
                status = "played"
                playout = arrival + depth
                if previous > playout:
                    playout = previous
            else:
                status = "played" if arrival <= deadline else "late"
                playout = deadline
                delay = arrival - sent
                deviation = abs(delay - d_hat)
                d_hat = a * d_hat + b * delay
                v_hat = a * v_hat + b * deviation
            previous = playout
            append(PlayedFrame(sequence, status, round(playout, 3), round(depth, 3)))
        self._d_hat, self._v_hat, self._seeded = d_hat, v_hat, seeded
        return PlayoutResult(frames=tuple(out))
