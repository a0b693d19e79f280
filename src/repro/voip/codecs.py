"""Voice codec parameter table for E-model scoring.

Equipment impairment (Ie) and loss robustness (Bpl) values follow ITU-T
G.113 Appendix I; per-codec algorithmic + packetization delays are the
commonly cited deployment values.  The paper's Section 2 cites the
"MOS drops ~1 unit per 1% loss without concealment" observation for
exactly these codecs, and its evaluation fixes G.729A+VAD.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Codec:
    """E-model-relevant parameters of one voice codec."""

    name: str
    ie: float                 # equipment impairment factor (no loss)
    bpl: float                # packet-loss robustness factor
    bitrate_kbps: float
    frame_ms: float           # codec frame duration
    lookahead_ms: float       # encoder lookahead
    frames_per_packet: int = 2

    def codec_delay_ms(self) -> float:
        """One-way delay contributed by the codec itself: encoding of the
        packet's frames plus lookahead (decode cost folded into frames)."""
        return self.frame_ms * self.frames_per_packet + self.lookahead_ms

    def packet_interval_ms(self) -> float:
        """Packetization interval (one packet per this many ms of speech)."""
        return self.frame_ms * self.frames_per_packet


G711 = Codec(
    name="G.711",
    ie=0.0,
    bpl=25.1,  # with packet loss concealment per G.113; robust to random loss
    bitrate_kbps=64.0,
    frame_ms=10.0,
    lookahead_ms=0.0,
)

G729 = Codec(
    name="G.729",
    ie=10.0,
    bpl=19.0,
    bitrate_kbps=8.0,
    frame_ms=10.0,
    lookahead_ms=5.0,
)

G729A_VAD = Codec(
    name="G.729A+VAD",
    ie=11.0,
    bpl=19.0,
    bitrate_kbps=8.0,
    frame_ms=10.0,
    lookahead_ms=5.0,
)

G723_1 = Codec(
    name="G.723.1",
    ie=15.0,
    bpl=16.1,
    bitrate_kbps=6.3,
    frame_ms=30.0,
    lookahead_ms=7.5,
    frames_per_packet=1,
)

# The media plane's loss-robust fallback.  iLBC's frame-independent
# coding buys a much higher Bpl (G.113 Appendix I additions; 30 ms
# mode): at zero loss its longer frame + lookahead make it score
# *below* G.729A+VAD (delay impairment), but past a few percent loss
# the Bpl advantage dominates and it scores above.  G.723.1 cannot
# play this role — its Bpl (16.1) is *lower* than G.729A's, so it
# degrades faster under loss, not slower.
ILBC = Codec(
    name="iLBC",
    ie=11.0,
    bpl=32.0,
    bitrate_kbps=13.33,
    frame_ms=30.0,
    lookahead_ms=10.0,
    frames_per_packet=1,
)

ALL_CODECS = (G711, G729, G729A_VAD, G723_1, ILBC)
