"""ITU-T G.107 E-model: R-factor and MOS from delay + loss.

The transmission rating is

    R = R0 - Is - Id(d) - Ie_eff(Ppl) + A

with the standard simplifications for VoIP planning:

- ``R0 - Is`` collapsed into the default 93.2 (all non-network analogue
  impairments at their G.107 defaults);
- delay impairment ``Id = 0.024 d + 0.11 (d - 177.3) H(d - 177.3)`` where
  ``d`` is the one-way mouth-to-ear delay in ms;
- effective equipment impairment
  ``Ie_eff = Ie + (95 - Ie) * Ppl / (Ppl + Bpl)`` with codec constants
  from G.113 (Ppl in percent, random loss);
- advantage factor ``A = 0`` (fixed-network expectation).

R maps to MOS with the G.107 conversion polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.voip.codecs import Codec, G729A_VAD

#: R0 - Is with all G.107 defaults.
BASE_R = 93.2
#: G.107's expectation factor A (fixed-network expectation).
ADVANTAGE = 0.0
#: Delay knee of the Id curve (ms, one-way mouth-to-ear).
_DELAY_KNEE_MS = 177.3


@dataclass(frozen=True)
class EModelConfig:
    """Fixed (non-network) terms of the E-model computation.

    ``jitter_buffer_ms`` is the playout buffer depth added to the one-way
    network delay.
    """

    codec: Codec = G729A_VAD
    jitter_buffer_ms: float = 20.0

    def __post_init__(self) -> None:
        if self.jitter_buffer_ms < 0:
            raise ConfigurationError("jitter_buffer_ms must be non-negative")


class EModel:
    """Scores paths: (one-way network delay, loss) → R-factor → MOS."""

    def __init__(self, config: EModelConfig = EModelConfig()) -> None:
        self._config = config

    @property
    def config(self) -> EModelConfig:
        return self._config

    def mouth_to_ear_delay_ms(self, one_way_network_ms: float) -> float:
        """Total one-way delay: network + codec + playout buffering."""
        if one_way_network_ms < 0:
            raise ConfigurationError("network delay must be non-negative")
        return (
            one_way_network_ms
            + self._config.codec.codec_delay_ms()
            + self._config.jitter_buffer_ms
        )

    def delay_impairment(self, mouth_to_ear_ms: float) -> float:
        """Id term of the E-model."""
        d = mouth_to_ear_ms
        impairment = 0.024 * d
        if d > _DELAY_KNEE_MS:
            impairment += 0.11 * (d - _DELAY_KNEE_MS)
        return impairment

    def loss_impairment(self, loss_rate: float) -> float:
        """Ie_eff term; ``loss_rate`` is a probability in [0, 1]."""
        if not 0.0 <= loss_rate <= 1.0:
            raise ConfigurationError(f"loss_rate must be in [0, 1], got {loss_rate}")
        codec = self._config.codec
        ppl = loss_rate * 100.0
        return codec.ie + (95.0 - codec.ie) * ppl / (ppl + codec.bpl)

    def r_factor(self, one_way_network_ms: float, loss_rate: float) -> float:
        """Transmission rating R for a path."""
        d = self.mouth_to_ear_delay_ms(one_way_network_ms)
        return BASE_R - self.delay_impairment(d) - self.loss_impairment(loss_rate) + ADVANTAGE

    def mos(self, one_way_network_ms: float, loss_rate: float) -> float:
        """Mean Opinion Score of a path under this codec."""
        return r_to_mos(self.r_factor(one_way_network_ms, loss_rate))

    def mos_from_rtt(self, rtt_ms: float, loss_rate: float) -> float:
        """MOS when only the RTT is known (symmetric one-way = RTT/2) —
        how the paper scores relay paths."""
        if rtt_ms < 0:
            raise ConfigurationError("rtt_ms must be non-negative")
        return self.mos(rtt_ms / 2.0, loss_rate)


def r_to_mos(r: float) -> float:
    """G.107 Annex B conversion from R-factor to MOS.

    The raw cubic dips marginally below 1.0 for tiny positive R, so the
    result is clamped into MOS's defined [1.0, 4.5] range (which also
    keeps the mapping monotone).
    """
    if r <= 0.0:
        return 1.0
    if r >= 100.0:
        return 4.5
    raw = 1.0 + 0.035 * r + r * (r - 60.0) * (100.0 - r) * 7.0e-6
    return min(4.5, max(1.0, raw))
