"""Packet-loss concealment accounting.

Waveform-substitution PLC (repeat last frame, attenuate) masks short
loss runs almost completely but collapses on long bursts — the decoder
has nothing plausible left to repeat.  We model that with a window:
the first ``max_conceal_frames`` of every *consecutive* loss run count
as *concealed* (weight ``conceal_weight`` toward effective loss), the
remainder as *revealed* (full weight).  The model is burst-aware by
construction: a Gilbert–Elliott channel producing the same mean loss
in longer bursts reveals strictly more loss than random drops do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class PLCConfig:
    max_conceal_frames: int = 3   # repeat/attenuate window per loss run
    conceal_weight: float = 0.35  # residual impairment of a concealed frame

    def __post_init__(self) -> None:
        if self.max_conceal_frames < 0:
            raise ConfigurationError("max_conceal_frames must be >= 0")
        if not 0.0 <= self.conceal_weight <= 1.0:
            raise ConfigurationError("conceal_weight must be in [0, 1]")


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


def conceal(loss_flags: Sequence[bool], config: PLCConfig = PLCConfig()) -> ConcealmentReport:
    """Apply the repeat/attenuate window model to a loss-flag sequence.

    ``loss_flags[i]`` is True when frame *i* was lost (or arrived too
    late to play).  Weight per frame: 0 for a played frame,
    ``conceal_weight`` for a concealed loss, 1.0 for a revealed loss.
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
        if run <= config.max_conceal_frames:
            concealed += 1
            weights.append(config.conceal_weight)
            statuses.append("concealed")
        else:
            revealed += 1
            weights.append(1.0)
            statuses.append("revealed")
    return ConcealmentReport(
        weights=tuple(weights), statuses=tuple(statuses),
        concealed=concealed, revealed=revealed,
    )
