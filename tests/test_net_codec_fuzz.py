"""Structured fuzz tests for the wire codec's adversarial-input contract.

The stream decoder faces bytes from the network; the contract under
attack (mutations, truncations, concatenations, garbage) is:

- decoding never raises anything but :class:`FrameError` /
  :class:`CodecError` — no crashes, no unbounded allocations;
- every frame a decoder *returns* is a complete, well-formed message
  (it re-encodes to a valid frame) — corruption never yields a partial
  or garbled emission;
- after the first corrupt frame the decoder is poisoned: every later
  ``feed`` raises, however valid its bytes.

All randomness is deterministic (fixed-seed ``random.Random``), so a
failure reproduces exactly.
"""

import random

import pytest

from repro.errors import CodecError, FrameError
from repro.net.codec import (
    Bye,
    CallSetup,
    CloseSetQuery,
    CloseSetReply,
    Frame,
    FrameDecoder,
    Join,
    Keepalive,
    MediaFrame,
    NodalPublish,
    ONEWAY,
    Ping,
    REQUEST,
    RESPONSE,
    ROLE_HOST,
    decode_frame,
    encode_frame,
)
from repro.netaddr import IPv4Address


def _corpus():
    """Representative valid frames: every field kind, varied flags/ids."""
    messages = [
        (Join(IPv4Address(0x0A000001), ROLE_HOST, -1, "10.0.0.1:4000"), REQUEST, 7),
        (Ping(token=0xDEADBEEF), REQUEST, 1),
        (CloseSetQuery(cluster=-1, requester_ip=IPv4Address(0x0A000002)), REQUEST, 2),
        (
            CloseSetReply(owner=12, entries=((3, 17.5), (9, 80.25), (41, 119.0))),
            RESPONSE,
            2,
        ),
        (
            NodalPublish(IPv4Address(0x0A000003), 1536.0, 72.5, 1.25),
            ONEWAY,
            0,
        ),
        (CallSetup(101, IPv4Address(0x0A000004), IPv4Address(0x0A000005)), REQUEST, 3),
        (
            MediaFrame(
                call_id=101, seq=5, timestamp_ms=100.0, codec=0, payload=b"\x00\x01voice\xff" * 3
            ),
            ONEWAY,
            0,
        ),
        (Keepalive(call_id=101, seq=6), REQUEST, 4),
        (Bye(call_id=101, reason="done"), ONEWAY, 0),
    ]
    return [
        (encode_frame(m, flags, request_id), Frame(m, flags, request_id))
        for m, flags, request_id in messages
    ]


def _reencodes(frame: Frame) -> bool:
    """A returned frame must be complete: its message re-encodes cleanly."""
    return isinstance(encode_frame(frame.message, frame.flags, frame.request_id), bytes)


DECODE_ERRORS = (FrameError, CodecError)


class TestDecodeFrameFuzz:
    def test_every_truncation_raises(self):
        for raw, _ in _corpus():
            for cut in range(len(raw)):
                with pytest.raises(DECODE_ERRORS):
                    decode_frame(raw[:cut])

    def test_single_byte_mutations_never_crash(self):
        rng = random.Random(0xA5A9)
        for raw, _ in _corpus():
            for _ in range(120):
                position = rng.randrange(len(raw))
                delta = rng.randrange(1, 256)
                mutated = bytearray(raw)
                mutated[position] = (mutated[position] + delta) % 256
                try:
                    frame = decode_frame(bytes(mutated))
                except DECODE_ERRORS:
                    continue  # rejected: the contract's good outcome
                # A benign mutation (e.g. a float payload bit) may still
                # decode — but only ever to a complete message.
                assert _reencodes(frame)

    def test_random_garbage_never_crashes(self):
        rng = random.Random(0xBEEF)
        for _ in range(300):
            blob = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 64)))
            try:
                frame = decode_frame(blob)
            except DECODE_ERRORS:
                continue
            assert _reencodes(frame)


def _feed_in_chunks(decoder, stream, rng):
    """Feed a byte stream in random-sized chunks, collecting frames."""
    frames = []
    offset = 0
    while offset < len(stream):
        size = rng.randrange(1, 19)
        frames.extend(decoder.feed(stream[offset:offset + size]))
        offset += size
    return frames


class TestFrameDecoderFuzz:
    def test_concatenated_frames_reassemble_under_any_chunking(self):
        corpus = _corpus()
        rng = random.Random(0x5EED)
        for trial in range(25):
            picks = [corpus[rng.randrange(len(corpus))] for _ in range(6)]
            stream = b"".join(raw for raw, _ in picks)
            decoder = FrameDecoder()
            frames = _feed_in_chunks(decoder, stream, rng)
            assert frames == [frame for _, frame in picks]
            assert len(decoder._buffer) == 0

    def test_truncated_tail_stays_pending_not_an_error(self):
        raw, frame = _corpus()[0]
        decoder = FrameDecoder()
        assert decoder.feed(raw + raw[:-1]) == [frame]
        assert len(decoder._buffer) == len(raw) - 1
        assert decoder.feed(raw[-1:]) == [frame]
        assert len(decoder._buffer) == 0

    def test_mutated_streams_poison_and_never_emit_partials(self):
        corpus = _corpus()
        rng = random.Random(0xFADE)
        poisoned_seen = 0
        for trial in range(60):
            picks = [corpus[rng.randrange(len(corpus))] for _ in range(4)]
            stream = bytearray(b"".join(raw for raw, _ in picks))
            stream[rng.randrange(len(stream))] ^= 1 << rng.randrange(8)
            decoder = FrameDecoder()
            emitted = []
            corrupted = False
            try:
                offset = 0
                while offset < len(stream):
                    size = rng.randrange(1, 23)
                    emitted.extend(decoder.feed(bytes(stream[offset:offset + size])))
                    offset += size
            except DECODE_ERRORS:
                corrupted = True
            for frame in emitted:
                assert _reencodes(frame)
            if corrupted:
                poisoned_seen += 1
                # Poison holds: perfectly valid bytes are now refused.
                with pytest.raises(FrameError, match="poisoned"):
                    decoder.feed(corpus[0][0])
        # Enough mutations must actually trip corruption (many bit flips
        # land in float/string payload bytes and legitimately decode) —
        # otherwise the poison assertions above are vacuous.
        assert poisoned_seen >= 10

    def test_garbage_prefix_poisons_immediately(self):
        decoder = FrameDecoder()
        with pytest.raises(FrameError):
            decoder.feed(b"XX" + bytes(20))
        with pytest.raises(FrameError, match="poisoned"):
            decoder.feed(_corpus()[0][0])


def _traced_corpus():
    """Traced variants of representative frames (extension segment set)."""
    contexts = [
        ("d-0001.2a30", "d-000001"),
        ("s-00ff.0", None),
        ("x" * 120, "y" * 120),
    ]
    out = []
    for index, (raw, frame) in enumerate(_corpus()):
        trace = contexts[index % len(contexts)]
        out.append(
            encode_frame(frame.message, frame.flags, frame.request_id, trace=trace)
        )
    return out


class TestTraceExtensionFuzz:
    def test_every_truncation_of_traced_frames_raises(self):
        for raw in _traced_corpus():
            for cut in range(len(raw)):
                with pytest.raises(DECODE_ERRORS):
                    decode_frame(raw[:cut])

    def test_mutations_inside_the_extension_never_crash(self):
        rng = random.Random(0x7ACE)
        for raw in _traced_corpus():
            for _ in range(120):
                position = rng.randrange(len(raw))
                mutated = bytearray(raw)
                mutated[position] ^= 1 << rng.randrange(8)
                try:
                    frame = decode_frame(bytes(mutated))
                except DECODE_ERRORS:
                    continue
                assert _reencodes(frame)

    def test_traced_and_legacy_frames_interleave_in_one_stream(self):
        rng = random.Random(0x51EA)
        legacy = [raw for raw, _ in _corpus()]
        traced = _traced_corpus()
        stream = b"".join(
            x for pair in zip(legacy, traced) for x in pair
        )
        decoder = FrameDecoder()
        frames = _feed_in_chunks(decoder, stream, rng)
        assert len(frames) == len(legacy) + len(traced)
        # trace context alternates absent/present down the stream
        assert [frame.trace_id is not None for frame in frames] == [
            bool(i % 2) for i in range(len(frames))
        ]
