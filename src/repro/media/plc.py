"""Packet-loss concealment accounting.

Waveform-substitution PLC (repeat last frame, attenuate) masks short
loss runs almost completely but collapses on long bursts — the decoder
has nothing plausible left to repeat.  We model that with a window:
the first :data:`MAX_CONCEAL_FRAMES` of every *consecutive* loss run
count as *concealed* (weight :data:`CONCEAL_WEIGHT` toward effective
loss), the remainder as *revealed* (full weight).  The model is burst-aware by
construction: a Gilbert–Elliott channel producing the same mean loss
in longer bursts reveals strictly more loss than random drops do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

#: Repeat/attenuate window per loss run, in frames.
MAX_CONCEAL_FRAMES = 3
#: Residual impairment of a concealed frame.
CONCEAL_WEIGHT = 0.35


@dataclass(frozen=True)
class ConcealmentReport:
    """Per-frame concealment outcome over one loss-flag sequence."""

    weights: Tuple[float, ...]    # per-frame effective-loss weight
    statuses: Tuple[str, ...]     # per-frame "ok" | "concealed" | "revealed"
    concealed: int                # loss frames masked by PLC
    revealed: int                 # loss frames PLC could not mask

    @property
    def concealed_rate(self) -> float:
        """Fraction of the stream's frames concealed by PLC."""
        if not self.weights:
            return 0.0
        return self.concealed / len(self.weights)

    @property
    def effective_loss(self) -> float:
        """PLC-adjusted loss rate to feed Ie_eff in the E-model."""
        if not self.weights:
            return 0.0
        return sum(self.weights) / len(self.weights)


def conceal(loss_flags: Sequence[bool]) -> ConcealmentReport:
    """Apply the repeat/attenuate window model to a loss-flag sequence.

    ``loss_flags[i]`` is True when frame *i* was lost (or arrived too
    late to play).  Weight per frame: 0 for a played frame,
    :data:`CONCEAL_WEIGHT` for a concealed loss, 1.0 for a revealed loss.
    """
    weights: List[float] = []
    statuses: List[str] = []
    concealed = revealed = 0
    run = 0
    for lost in loss_flags:
        if not lost:
            run = 0
            weights.append(0.0)
            statuses.append("ok")
            continue
        run += 1
        if run <= MAX_CONCEAL_FRAMES:
            concealed += 1
            weights.append(CONCEAL_WEIGHT)
            statuses.append("concealed")
        else:
            revealed += 1
            weights.append(1.0)
            statuses.append("revealed")
    return ConcealmentReport(
        weights=tuple(weights), statuses=tuple(statuses),
        concealed=concealed, revealed=revealed,
    )
