"""Received-frame traces.

A sender paces frames at the codec's packetization interval in
*simulated* time (:func:`repro.media.session.run_media_session` does
so inline); the receiving side reconstructs a :class:`ReceivedTrace` —
one :class:`ReceivedFrame` per sequence number, lost frames included —
which is the unit every downstream stage (jitter buffer, PLC, scorer)
consumes and the unit written to disk for byte-diff determinism checks.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

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

    @property
    def loss_rate(self) -> float:
        if not self.frames:
            return 0.0
        return sum(1 for f in self.frames if f.lost) / len(self.frames)

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

    def write(self, path: Union[str, Path]) -> None:
        Path(path).write_text(self.to_jsonl(), encoding="utf-8")

    @classmethod
    def from_jsonl(cls, text: str) -> "ReceivedTrace":
        """Parse :meth:`to_jsonl` output.

        This is an outside-input boundary: a line that is not a JSON
        object, a missing key, a non-integer count or sequence number, a
        send or arrival time that is not a finite number, an unknown
        codec, or frames out of sequence raise
        :class:`~repro.errors.ConfigurationError` naming the line.
        """
        lines = [(n, ln) for n, ln in enumerate(text.splitlines(), 1) if ln.strip()]
        if not lines:
            raise ConfigurationError("empty trace file")
        n, ln = lines[0]
        header = _json_object(n, ln)
        call_id = _checked(n, header, "call_id", _is_int, "an integer")
        count = _checked(n, header, "frames", _is_int, "an integer")
        frames = []
        for n, ln in lines[1:]:
            rec = _json_object(n, ln)
            seq = _checked(n, rec, "seq", _is_int, "an integer")
            if seq != len(frames):
                raise ConfigurationError(
                    f"trace line {n}: seq {seq} where {len(frames)} was due; "
                    "traces must be gap-free and ordered"
                )
            frames.append(ReceivedFrame(
                seq,
                _checked(n, rec, "sent_ms", _is_finite, "a finite number"),
                _checked(n, rec, "arrival_ms", _is_finite_or_none, "a finite number or null"),
                _checked(n, rec, "codec", _is_codec_name, "a known codec name"),
            ))
        if len(frames) != count:
            raise ConfigurationError(
                f"trace header frame count mismatch: line {lines[0][0]} says {count}, "
                f"{len(frames)} frame lines follow"
            )
        return cls(call_id=call_id, frames=tuple(frames))

    @classmethod
    def read(cls, path: Union[str, Path]) -> "ReceivedTrace":
        return cls.from_jsonl(Path(path).read_text(encoding="utf-8"))


def _json_object(line: int, text: str) -> dict:
    try:
        value = json.loads(text)
    except ValueError as exc:
        raise ConfigurationError(f"trace line {line}: not JSON ({exc})") from None
    if not isinstance(value, dict):
        raise ConfigurationError(
            f"trace line {line}: expected a JSON object, got {type(value).__name__}"
        )
    return value


def _checked(line: int, record: dict, key: str, valid, expected: str):
    if key not in record:
        raise ConfigurationError(f"trace line {line}: missing key {key!r}")
    value = record[key]
    if not valid(value):
        raise ConfigurationError(f"trace line {line}: {key} must be {expected}, got {value!r}")
    return value


def _is_int(value) -> bool:
    return type(value) is int


def _is_finite(value) -> bool:
    return type(value) in (int, float) and math.isfinite(value)


def _is_finite_or_none(value) -> bool:
    return value is None or _is_finite(value)


def _is_codec_name(value) -> bool:
    return isinstance(value, str) and value in _CODECS_BY_NAME


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
