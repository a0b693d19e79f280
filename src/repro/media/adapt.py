"""Adaptive codec switching with hysteresis.

The sender watches measured loss over a sliding window of recent
frames; when it crosses ``down_loss`` it falls back from the primary
codec (G.729A+VAD) to the loss-robust fallback (iLBC, whose Bpl more
than doubles G.729A's), and only returns once the window drops below
the much lower ``up_loss`` — a hysteresis band that prevents flapping
at the boundary.  ``min_dwell_frames`` adds a refractory period after
each switch.  Deterministic: decisions are a pure function of the
observed loss sequence.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional

from repro.errors import ConfigurationError
from repro.voip.codecs import Codec, G729A_VAD, ILBC


@dataclass(frozen=True)
class AdaptationPolicy:
    primary: Codec = G729A_VAD
    fallback: Codec = ILBC
    # A 100-frame window at 20 ms pacing ≈ 2 s of speech; the down
    # threshold sits above what a single typical loss burst (~4 frames)
    # contributes (0.04), so only sustained degradation triggers it.
    window_frames: int = 100
    down_loss: float = 0.10       # window loss above this → fallback
    up_loss: float = 0.02         # window loss below this → primary
    min_dwell_frames: int = 100   # frames to hold a codec after switching

    def __post_init__(self) -> None:
        if self.window_frames < 1:
            raise ConfigurationError("window_frames must be >= 1")
        if not 0.0 <= self.up_loss < self.down_loss <= 1.0:
            raise ConfigurationError("need 0 <= up_loss < down_loss <= 1")
        if self.min_dwell_frames < 0:
            raise ConfigurationError("min_dwell_frames must be >= 0")


@dataclass(frozen=True)
class CodecSwitch:
    """One adaptation decision, emitted the moment it fires."""

    at_ms: float
    sequence: int                 # frame that triggered the switch
    from_codec: str
    to_codec: str
    window_loss: float


class CodecAdapter:
    """Sliding-window loss observer driving codec selection."""

    def __init__(self, policy: AdaptationPolicy = AdaptationPolicy()) -> None:
        self.policy = policy
        self.codec: Codec = policy.primary
        self.switches: List[CodecSwitch] = []
        self._window: Deque[bool] = deque(maxlen=policy.window_frames)
        self._lost = 0  # losses inside the window, kept as frames enter and leave
        self._dwell = 0

    @property
    def window_loss(self) -> float:
        if not self._window:
            return 0.0
        return self._lost / len(self._window)

    def observe(self, sequence: int, at_ms: float, lost: bool) -> Optional[CodecSwitch]:
        """Feed one frame outcome; returns the switch if one fired."""
        window = self._window
        if len(window) == window.maxlen:
            self._lost -= window[0]  # about to be evicted by the append
        window.append(lost)
        self._lost += lost
        if self._dwell > 0:
            self._dwell -= 1
            return None
        if len(window) < window.maxlen:
            return None
        loss = self.window_loss
        target: Optional[Codec] = None
        if self.codec is self.policy.primary and loss >= self.policy.down_loss:
            target = self.policy.fallback
        elif self.codec is self.policy.fallback and loss <= self.policy.up_loss:
            target = self.policy.primary
        if target is None:
            return None
        switch = CodecSwitch(
            at_ms=round(at_ms, 3),
            sequence=sequence,
            from_codec=self.codec.name,
            to_codec=target.name,
            window_loss=round(loss, 6),
        )
        self.codec = target
        self.switches.append(switch)
        self._dwell = self.policy.min_dwell_frames
        return switch
