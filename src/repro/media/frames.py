"""Received-frame traces.

A sender paces frames at the codec's packetization interval in
*simulated* time (:func:`repro.media.session.run_media_session` does
so inline); the receiving side reconstructs a :class:`ReceivedTrace` —
one :class:`ReceivedFrame` per sequence number, lost frames included —
which is the unit every downstream stage (jitter buffer, PLC, scorer)
consumes and the unit serialized (:meth:`ReceivedTrace.to_jsonl`) for
byte-diff determinism checks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, ProtocolError
from repro.voip.codecs import ALL_CODECS, Codec

#: Stable codec → wire-id table (u8 on the MediaFrame message).  Ids
#: are positional in ``ALL_CODECS``; append-only by construction.
CODEC_WIRE_IDS: Dict[str, int] = {c.name: i for i, c in enumerate(ALL_CODECS)}

_CODECS_BY_ID: Dict[int, Codec] = {i: c for i, c in enumerate(ALL_CODECS)}
_CODECS_BY_NAME: Dict[str, Codec] = {c.name: c for c in ALL_CODECS}


def codec_by_wire_id(wire_id: int) -> Codec:
    try:
        return _CODECS_BY_ID[wire_id]
    except KeyError:
        raise ConfigurationError(f"unknown codec wire id {wire_id}") from None


class ReceivedFrame(NamedTuple):
    """One frame as seen at the receiver; ``arrival_ms is None`` = lost."""

    sequence: int
    sent_ms: float
    arrival_ms: Optional[float]
    codec: str

    @property
    def lost(self) -> bool:
        return self.arrival_ms is None


@dataclass(frozen=True)
class ReceivedTrace:
    """A complete, gap-free received-frame record of one media leg."""

    call_id: int
    frames: Tuple[ReceivedFrame, ...]

    def __post_init__(self) -> None:
        frames = self.frames
        if list(map(itemgetter(0), frames)) == list(range(len(frames))):
            return
        i = next(i for i, f in enumerate(frames) if f.sequence != i)
        raise ConfigurationError(
            f"trace frame {i} carries sequence {frames[i].sequence}; "
            "traces must be gap-free and ordered"
        )

    @property
    def duration_ms(self) -> float:
        if not self.frames:
            return 0.0
        last = self.frames[-1]
        codec = _codec_by_name(last.codec)
        return last.sent_ms + codec.packet_interval_ms()

    def to_jsonl(self) -> str:
        """Canonical byte-stable serialization (one frame per line)."""
        lines = [
            json.dumps(
                {"schema": 1, "call_id": self.call_id, "frames": len(self.frames)},
                sort_keys=True,
                separators=(",", ":"),
            )
        ]
        for f in self.frames:
            record = {
                "seq": f.sequence,
                "sent_ms": round(f.sent_ms, 3),
                "arrival_ms": None if f.arrival_ms is None else round(f.arrival_ms, 3),
                "codec": f.codec,
            }
            lines.append(json.dumps(record, sort_keys=True, separators=(",", ":")))
        return "\n".join(lines) + "\n"


def _codec_by_name(name: str) -> Codec:
    try:
        return _CODECS_BY_NAME[name]
    except KeyError:
        raise ConfigurationError(f"unknown codec {name!r}") from None


def trace_from_wire(
    call_id: int,
    received: Sequence[Tuple[int, float, float, int]],
    expected_frames: Optional[int] = None,
    budget: Optional[int] = None,
) -> ReceivedTrace:
    """Build a gap-free trace from wire-level ``MediaFrame`` receipts.

    ``received`` holds ``(seq, timestamp_ms, arrival_ms, codec_wire_id)``
    tuples in any order; sequence numbers the sender emitted but the
    receiver never saw become lost frames.  A lost frame's send time is
    interpolated from its neighbours' pacing (last known codec), since
    the wire carries send times only on frames that arrived.

    ``budget`` is the most frames the call can have sent: a receipt at
    or beyond it (a forged or corrupt seq, which would otherwise ask for
    every frame up to it) raises :class:`ProtocolError` naming the call
    and the seq.  It bounds the receipts only; the trace still ends at
    the largest seq received (or ``expected_frames``).
    """
    by_seq: Dict[int, Tuple[float, float, int]] = {}
    for seq, ts, arr, wire_id in received:
        if budget is not None and seq >= budget:
            raise ProtocolError(
                f"call {call_id}: frame seq {seq} is beyond its budget of {budget} frames"
            )
        # Duplicates (relay re-forwarding): keep the earliest arrival.
        if seq not in by_seq or arr < by_seq[seq][1]:
            by_seq[seq] = (ts, arr, wire_id)
    if expected_frames is None:
        expected_frames = max(by_seq) + 1 if by_seq else 0
    frames: List[ReceivedFrame] = []
    last_codec: Codec = ALL_CODECS[0] if not by_seq else codec_by_wire_id(
        by_seq[min(by_seq)][2]
    )
    last_sent = 0.0
    for seq in range(expected_frames):
        if seq in by_seq:
            ts, arr, wire_id = by_seq[seq]
            codec = codec_by_wire_id(wire_id)
            frames.append(ReceivedFrame(seq, round(ts, 3), round(arr, 3), codec.name))
            last_codec, last_sent = codec, ts
        else:
            last_sent = last_sent + last_codec.packet_interval_ms() if frames else 0.0
            frames.append(
                ReceivedFrame(seq, round(last_sent, 3), None, last_codec.name)
            )
    return ReceivedTrace(call_id=call_id, frames=tuple(frames))
