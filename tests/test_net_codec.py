"""Property-style tests for the wire codec.

Random messages of every registered type must round-trip bit-exactly,
and no amount of truncation or corruption may raise anything outside
the :class:`repro.errors.WireError` family (or hang): the decoder is
total over arbitrary bytes.
"""

import dataclasses
import random
import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CodecError, FrameError, WireError
from repro.net import codec
from repro.net.codec import (
    CODEC_SCHEMA_VERSION,
    ERROR,
    TRACE_EXT_VERSION,
    TRACE_FLAG,
    MAX_PAYLOAD_BYTES,
    MESSAGE_TYPES,
    ONEWAY,
    PAIR_DTYPE,
    REQUEST,
    RESPONSE,
    ROLE_HOST,
    Bye,
    CallAccept,
    CallSetup,
    CloseSetQuery,
    CloseSetReply,
    ErrorFrame,
    Frame,
    FrameDecoder,
    Join,
    JoinOk,
    Keepalive,
    KeepaliveAck,
    Leave,
    MediaFrame,
    NodalPublish,
    Ping,
    Pong,
    RelayOk,
    RelaySetup,
    Resolve,
    ResolveOk,
    decode_frame,
    encode_frame,
    pairs_table,
)
from repro.netaddr import IPv4Address

_FLAGS = (ONEWAY, REQUEST, RESPONSE, ERROR)


def _random_value(kind: str, rng: random.Random):
    if kind == "u8":
        return rng.randrange(1 << 8)
    if kind == "u16":
        return rng.randrange(1 << 16)
    if kind == "u32":
        return rng.randrange(1 << 32)
    if kind == "u64":
        return rng.randrange(1 << 64)
    if kind == "i32":
        return rng.randrange(-(1 << 31), 1 << 31)
    if kind == "f64":
        return rng.choice([0.0, -1.5, rng.uniform(-1e9, 1e9), float(rng.randrange(10**6))])
    if kind == "ip":
        return IPv4Address(rng.randrange(1 << 32))
    if kind == "str":
        alphabet = string.ascii_letters + string.digits + " .:-/§µ"
        return "".join(rng.choice(alphabet) for _ in range(rng.randrange(40)))
    if kind == "bytes":
        return bytes(rng.randrange(256) for _ in range(rng.randrange(64)))
    if kind == "pairs":
        return tuple(
            (rng.randrange(1 << 32), rng.uniform(0.0, 5000.0))
            for _ in range(rng.randrange(8))
        )
    raise AssertionError(f"unknown field kind {kind!r}")


def _random_message(cls, rng: random.Random):
    return cls(**{name: _random_value(kind, rng) for name, kind in cls.FIELDS})


class TestRoundTrip:
    @pytest.mark.parametrize("msg_type", sorted(MESSAGE_TYPES))
    def test_random_messages_round_trip(self, msg_type):
        cls = MESSAGE_TYPES[msg_type]
        rng = random.Random(msg_type)
        for _ in range(50):
            message = _random_message(cls, rng)
            flags = rng.choice(_FLAGS)
            request_id = rng.randrange(1 << 32)
            frame = decode_frame(encode_frame(message, flags, request_id))
            assert frame == Frame(message=message, flags=flags, request_id=request_id)

    def test_encoding_is_deterministic(self):
        rng = random.Random(7)
        for msg_type, cls in sorted(MESSAGE_TYPES.items()):
            message = _random_message(cls, rng)
            assert encode_frame(message, REQUEST, 9) == encode_frame(message, REQUEST, 9)

    def test_every_protocol_message_is_registered(self):
        # 19 messages: the full §6 vocabulary, the error frame, and the
        # best-effort Leave deregistration.
        assert len(MESSAGE_TYPES) == 19
        names = {cls.__name__ for cls in MESSAGE_TYPES.values()}
        assert {"Join", "Leave", "CloseSetQuery", "CallSetup", "RelaySetup",
                "MediaFrame", "Keepalive", "Bye", "ErrorFrame"} <= names


class TestRejection:
    def test_every_truncation_raises_frame_error(self):
        data = encode_frame(
            Join(ip=IPv4Address(1), role=0, cluster=-1, wire_addr="127.0.0.1:9"),
            REQUEST,
            3,
        )
        for cut in range(len(data)):
            with pytest.raises(FrameError):
                decode_frame(data[:cut])

    def test_trailing_bytes_raise(self):
        data = encode_frame(Ping(token=5))
        with pytest.raises(FrameError):
            decode_frame(data + b"\x00")

    def test_single_byte_corruption_never_escapes_wire_errors(self):
        rng = random.Random(13)
        data = encode_frame(
            CloseSetReply(owner=4, entries=[(1, 10.0), (9, 250.5)]), RESPONSE, 77
        )
        for index in range(len(data)):
            for _ in range(4):
                corrupt = bytearray(data)
                corrupt[index] ^= rng.randrange(1, 256)
                try:
                    decode_frame(bytes(corrupt))
                except WireError:
                    pass  # FrameError or CodecError: both acceptable
        # any non-WireError exception (or hang) fails the test

    def test_random_garbage_never_escapes_wire_errors(self):
        rng = random.Random(17)
        for _ in range(200):
            blob = bytes(rng.randrange(256) for _ in range(rng.randrange(120)))
            try:
                decode_frame(blob)
            except WireError:
                pass

    def test_retired_media_type_is_an_unknown_type(self):
        # Schema 2 retired the untimed Media packet (type 0x0E).
        assert 0x0E not in MESSAGE_TYPES
        data = bytearray(encode_frame(Ping(token=1)))
        data[3] = 0x0E
        with pytest.raises(FrameError, match="unknown"):
            decode_frame(bytes(data))

    def test_wrong_schema_version_rejected(self):
        data = bytearray(encode_frame(Ping(token=1)))
        data[2] = CODEC_SCHEMA_VERSION + 1
        with pytest.raises(FrameError, match="schema"):
            decode_frame(bytes(data))

    def test_declared_payload_over_cap_rejected(self):
        import struct

        header = struct.pack("!2sBBBII", b"AS", CODEC_SCHEMA_VERSION, 0x05,
                             ONEWAY, 0, MAX_PAYLOAD_BYTES + 1)
        with pytest.raises(FrameError, match="cap"):
            decode_frame(header)

    def test_encode_rejects_bad_flags_and_request_id(self):
        with pytest.raises(CodecError):
            encode_frame(Ping(token=1), flags=9)
        with pytest.raises(CodecError):
            encode_frame(Ping(token=1), request_id=1 << 32)

    @pytest.mark.parametrize(
        "flags, request_id",
        [(REQUEST, 1.5), (REQUEST, None), (True, 0), (False, 0)],
        ids=["float-request-id", "none-request-id", "bool-flags-true", "bool-flags-false"],
    )
    def test_encode_rejects_a_non_int_envelope(self, flags, request_id):
        with pytest.raises(CodecError):
            encode_frame(Ping(token=1), flags, request_id)

    @pytest.mark.parametrize("msg_type", sorted(MESSAGE_TYPES))
    def test_every_fixed_field_rejects_a_bad_value(self, msg_type):
        cls = MESSAGE_TYPES[msg_type]
        message = _random_message(cls, random.Random(msg_type))
        bad = {"f64": ["1.5", True, None], "ip": [1, None]}
        for name, kind in cls.FIELDS:
            if kind in ("str", "bytes", "pairs"):
                continue
            for value in bad.get(kind, [True, 1.5, None, -(1 << 64), 1 << 64]):
                with pytest.raises(CodecError):
                    encode_frame(dataclasses.replace(message, **{name: value}))

    def test_encode_rejects_out_of_range_field(self):
        with pytest.raises(CodecError):
            encode_frame(Ping(token=1 << 32))
        with pytest.raises(CodecError):
            encode_frame(
                MediaFrame(call_id=1, seq=2, timestamp_ms=0.0, codec=0, payload="not-bytes")
            )


def _pack_outcome(pack, value):
    """The bytes a pairs packer returns, or the error it raises."""
    try:
        return pack(value)
    except Exception as exc:
        return type(exc), str(exc)


_scalars = st.one_of(
    st.integers(min_value=-(1 << 33), max_value=1 << 33),
    st.integers(min_value=0, max_value=(1 << 32) - 1),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.integers(min_value=-(1 << 40), max_value=1 << 40).map(np.int64),
    st.integers(min_value=0, max_value=(1 << 32) - 1).map(np.uint32),
    st.floats(width=32).map(np.float32),
    st.floats().map(np.float64),
    st.booleans().map(np.bool_),
    st.sampled_from(["7", "2.5", "x", None]),
)
_pairs = st.one_of(
    st.lists(
        st.one_of(
            st.tuples(_scalars, _scalars),
            st.lists(_scalars, min_size=2, max_size=2),
            st.lists(_scalars, max_size=3),  # wrong arity, alone or mixed
            _scalars,  # not a pair at all
        ),
        max_size=12,
    ),
    _scalars,  # not a list at all
)


def _table(pairs):
    """A PAIR_DTYPE table built column-wise with numpy, not by the codec."""
    table = np.empty(len(pairs), dtype=PAIR_DTYPE)
    table["cluster"] = [cluster for cluster, _ in pairs]
    table["rtt_ms"] = [rtt for _, rtt in pairs]
    return table


class TestPairsFastPath:
    """``_pack_pairs`` packs a wire table as its own bytes and sends
    everything else down the coercing, per-pair checked path."""

    @settings(max_examples=400, deadline=None)
    @given(value=_pairs)
    def test_fast_path_matches_the_checked_path(self, value):
        expected = _pack_outcome(codec._pack_pairs_checked, value)
        assert _pack_outcome(codec._pack_pairs, value) == expected

    @settings(max_examples=200, deadline=None)
    @given(
        value=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=(1 << 32) - 1),
                st.floats(min_value=0.0, max_value=5000.0),
            ),
            min_size=150,
            max_size=335,
        )
    )
    def test_close_set_sized_replies_are_byte_identical(self, value):
        fast = _pack_outcome(codec._pack_pairs, _table(value))
        assert isinstance(fast, bytes) and len(fast) == 12 * len(value)
        assert fast == _pack_outcome(codec._pack_pairs_checked, value)

    @settings(max_examples=200, deadline=None)
    @given(
        value=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=(1 << 32) - 1),
                st.floats(allow_nan=True, allow_infinity=True),
            ),
            max_size=20,
        )
    )
    def test_a_table_packs_like_the_checked_path(self, value):
        table = _table(value)
        assert codec._pack_pairs(table) == codec._pack_pairs_checked(value)
        assert codec.pairs_table(table) is table
        assert codec.pairs_table(value).tobytes() == table.tobytes()

    @pytest.mark.parametrize(
        "value, message",
        [
            ([(-1, 1.0)], "pair cluster -1 out of u32 range"),
            ([(1 << 32, 1.0)], f"pair cluster {1 << 32} out of u32 range"),
            ([(1, "fast")], "pairs field needs an iterable of (int, float)"),
            ([(1, 2.0, 3)], "pairs field needs an iterable of (int, float)"),
            ([(1, 2.0, 3), (4.0,)], "pairs field needs an iterable of (int, float)"),
            (7, "pairs field needs an iterable of (int, float)"),
        ],
    )
    def test_rejections_keep_their_errors(self, value, message):
        with pytest.raises(CodecError) as err:
            codec._pack_pairs(value)
        assert str(err.value) == message


_CALL = (1 << 40) + 101

#: One fixed message per registered type (plus one traced frame) and the
#: frame bytes the field-by-field codec wrote for it, as hex: the fused
#: codec must write and read exactly these.
PINNED_FRAMES = [
    (Join(IPv4Address(0x0A000001), ROLE_HOST, -1, "10.0.0.1:4000"), REQUEST, 7, None,
     "415302010100000007000000180a00000100ffffffff000d31302e302e302e313a34303030"),
    (JoinOk(5, IPv4Address(0x0A000101), "10.0.1.1:5000"), RESPONSE, 7, None,
     "41530202020000000700000017000000050a000101000d31302e302e312e313a35303030"),
    (Resolve(IPv4Address(0xC0A80001)), REQUEST, 2, None,
     "41530203010000000200000004c0a80001"),
    (ResolveOk(IPv4Address(0xC0A80001), 1, "lo:3"), RESPONSE, 2, None,
     "4153020402000000020000000bc0a800010100046c6f3a33"),
    (Ping(token=0xDEADBEEF), REQUEST, 1, None, "41530205010000000100000004deadbeef"),
    (Pong(token=0xDEADBEEF), RESPONSE, 1, None, "41530206020000000100000004deadbeef"),
    (CloseSetQuery(-1, IPv4Address(0x0A000002)), REQUEST, 3, None,
     "41530207010000000300000008ffffffff0a000002"),
    (CloseSetReply(12, ((3, 17.5), (9, 80.25), (41, 119.0))), RESPONSE, 3, None,
     "4153020802000000030000002c0000000c00000003000000034031800000000000"
     "00000009405410000000000000000029405dc00000000000"),
    (NodalPublish(IPv4Address(0x0A000003), 1536.0, 72.5, 1.25), ONEWAY, 0, None,
     "4153020900000000000000001c0a000003409800000000000040522000000000003ff4000000000000"),
    (CallSetup(_CALL, IPv4Address(0x0A000004), IPv4Address(0x0A000005)), REQUEST, 4, None,
     "4153020a01000000040000001000000100000000650a0000040a000005"),
    (CallAccept(_CALL, 1), RESPONSE, 4, None, "4153020b020000000400000009000001000000006501"),
    (RelaySetup(_CALL, IPv4Address(0x0A000004), IPv4Address(0x0A000005)), REQUEST, 5, None,
     "4153020c01000000050000001000000100000000650a0000040a000005"),
    (RelayOk(_CALL), RESPONSE, 5, None, "4153020d0200000005000000080000010000000065"),
    (MediaFrame(_CALL, 5, 100.125, 2, b"\x00\x01voice\xff"), ONEWAY, 0, None,
     "41530214000000000000000021000001000000006500000005405908000000000002000000080001"
     "766f696365ff"),
    (Keepalive(_CALL, 6), REQUEST, 6, None,
     "4153020f01000000060000000c000001000000006500000006"),
    (KeepaliveAck(_CALL, 6), RESPONSE, 6, None,
     "4153021002000000060000000c000001000000006500000006"),
    (Bye(_CALL, "done §"), ONEWAY, 0, None,
     "4153021100000000000000001100000100000000650007646f6e6520c2a7"),
    (Leave(IPv4Address(0x0A000001)), ONEWAY, 0, None, "415302130000000000000000040a000001"),
    (ErrorFrame(3, "not serving"), ERROR, 8, None,
     "4153021203000000080000000f0003000b6e6f742073657276696e67"),
    (Ping(token=9), REQUEST, 7, ("d-0001.2a", "d-000001"),
     "41530205810000000700000004140109642d303030312e326108642d30303030303100000009"),
]


class TestPinnedFrames:
    def test_every_registered_type_is_pinned(self):
        assert sorted({type(m).TYPE for m, *_ in PINNED_FRAMES}) == sorted(MESSAGE_TYPES)

    @pytest.mark.parametrize(
        "message, flags, request_id, trace, pinned",
        PINNED_FRAMES,
        ids=[type(m).__name__ + ("-traced" if t else "") for m, _, _, t, _ in PINNED_FRAMES],
    )
    def test_bytes_and_both_decoders(self, message, flags, request_id, trace, pinned):
        raw = encode_frame(message, flags, request_id, trace=trace)
        assert raw.hex() == pinned
        decoder = FrameDecoder()
        fed = [frame for i in range(len(raw)) for frame in decoder.feed(raw[i:i + 1])]
        frame = decode_frame(raw)
        assert fed == [frame] == [codec._decode_checked(raw)]
        assert frame == Frame(message, flags, request_id, *(trace or (None, None)))
        assert type(frame.message) is type(message)
        assert encode_frame(frame.message, flags, request_id, trace=trace) == raw


class TestCloseSetTable:
    def test_decoded_entries_are_a_private_read_only_table(self):
        reply = CloseSetReply(owner=4, entries=[(1, 10.0), (9, 250.5)])
        raw = encode_frame(reply, RESPONSE, 5)
        decoder = FrameDecoder()
        (frame,) = decoder.feed(raw + raw[:3])
        entries = frame.message.entries
        assert entries.dtype == PAIR_DTYPE and not entries.flags.writeable
        assert entries.tolist() == [(1, 10.0), (9, 250.5)]
        assert isinstance(entries.base, bytes)  # a copy, not the decoder's buffer
        decoder.feed(raw[3:])
        assert entries.tolist() == [(1, 10.0), (9, 250.5)]

    def test_a_table_encodes_as_the_pairs_do(self):
        pairs = [(1, 10.0), (9, 250.5)]
        table = pairs_table(pairs)
        assert encode_frame(CloseSetReply(4, table)) == encode_frame(CloseSetReply(4, pairs))
        assert encode_frame(CloseSetReply(4, table[::-1])) == encode_frame(
            CloseSetReply(4, pairs[::-1])
        )

    def test_replies_compare_by_value(self):
        table = pairs_table([(1, 10.0), (9, 250.5)])
        assert CloseSetReply(4, table) == CloseSetReply(4, ((1, 10.0), (9, 250.5)))
        assert CloseSetReply(4, table) == CloseSetReply(4, table.copy())
        assert CloseSetReply(4, table) != CloseSetReply(5, table)
        assert CloseSetReply(4, table) != CloseSetReply(4, [(1, 10.0), (9, 250.25)])
        assert CloseSetReply(4, table) != CloseSetReply(4, table[:1])


class TestFrameDecoder:
    def test_byte_by_byte_reassembly_in_order(self):
        messages = [Ping(token=1), ErrorFrame(code=2, detail="x"), Ping(token=3)]
        stream = b"".join(
            encode_frame(m, REQUEST, i + 1) for i, m in enumerate(messages)
        )
        decoder = FrameDecoder()
        frames = []
        for index in range(len(stream)):
            frames.extend(decoder.feed(stream[index:index + 1]))
        assert [f.message for f in frames] == messages
        assert [f.request_id for f in frames] == [1, 2, 3]
        assert len(decoder._buffer) == 0

    def test_partial_frame_is_buffered_not_an_error(self):
        data = encode_frame(Ping(token=9))
        decoder = FrameDecoder()
        assert decoder.feed(data[:5]) == []
        assert len(decoder._buffer) == 5
        assert [f.message for f in decoder.feed(data[5:])] == [Ping(token=9)]

    def test_corrupt_header_poisons_the_decoder(self):
        decoder = FrameDecoder()
        with pytest.raises(FrameError):
            decoder.feed(b"XX" + bytes(11))
        with pytest.raises(FrameError, match="poisoned"):
            decoder.feed(encode_frame(Ping(token=1)))

    def test_random_chunking_is_equivalent_to_whole_stream(self):
        rng = random.Random(23)
        messages = [
            _random_message(MESSAGE_TYPES[t], rng) for t in sorted(MESSAGE_TYPES)
        ]
        stream = b"".join(encode_frame(m, ONEWAY, 0) for m in messages)
        for trial in range(10):
            chunk_rng = random.Random(trial)
            decoder = FrameDecoder()
            frames, offset = [], 0
            while offset < len(stream):
                step = chunk_rng.randrange(1, 40)
                frames.extend(decoder.feed(stream[offset:offset + step]))
                offset += step
            assert [f.message for f in frames] == messages


def _split_traced(message, trace, flags=REQUEST, request_id=7):
    """Encode a traced frame and return (header, ext_with_len, payload)."""
    raw = encode_frame(message, flags, request_id, trace=trace)
    header_size = codec._HEADER.size
    body_start = header_size + 1 + raw[header_size]
    return raw[:header_size], raw[header_size:body_start], raw[body_start:]


class TestTraceExtension:
    def test_round_trip_with_and_without_parent_span(self):
        for trace in (("d-0001.2a", "d-000001"), ("solo-trace", None)):
            data = encode_frame(Ping(token=9), REQUEST, 7, trace=trace)
            frame = decode_frame(data)
            assert (frame.trace_id, frame.parent_span) == trace
            assert frame.message == Ping(token=9)
            assert frame.flags == REQUEST and frame.request_id == 7

    def test_untraced_encoding_is_byte_identical_to_old_wire(self):
        # trace=None must not perturb a single bit: old decoders keep
        # working, and old frames decode with no trace context.
        plain = encode_frame(Ping(token=1), REQUEST, 3)
        assert encode_frame(Ping(token=1), REQUEST, 3, trace=None) == plain
        frame = decode_frame(plain)
        assert frame.trace_id is None and frame.parent_span is None

    def test_trace_rides_only_the_flag_bit(self):
        header, ext, payload = _split_traced(Ping(token=1), ("t-01.0", "t-000001"))
        plain = encode_frame(Ping(token=1), REQUEST, 7)
        # Stripping the extension and clearing the bit reproduces the
        # pre-extension frame exactly.
        unflagged = bytearray(header + payload)
        unflagged[4] &= ~TRACE_FLAG & 0xFF
        assert bytes(unflagged) == plain
        assert ext[1] == TRACE_EXT_VERSION

    def test_encode_rejects_bad_trace_context(self):
        with pytest.raises(CodecError):
            encode_frame(Ping(token=1), trace=("", None))
        with pytest.raises(CodecError):
            encode_frame(Ping(token=1), trace=(1234, None))
        with pytest.raises(CodecError):
            encode_frame(Ping(token=1), trace=("x" * 300, None))

    def test_every_extension_truncation_raises(self):
        header, ext, payload = _split_traced(Ping(token=5), ("tr-99", "sp-11"))
        for cut in range(len(ext)):
            with pytest.raises(FrameError):
                decode_frame(header + ext[:cut] + payload)

    def test_unknown_extension_version_rejected(self):
        header, ext, payload = _split_traced(Ping(token=5), ("tr-99", "sp-11"))
        mutated = bytearray(ext)
        mutated[1] = TRACE_EXT_VERSION + 1
        with pytest.raises(FrameError, match="version"):
            decode_frame(header + bytes(mutated) + payload)

    def test_empty_trace_id_on_the_wire_rejected(self):
        header, _, payload = _split_traced(Ping(token=5), ("tr", None))
        ext = bytes((TRACE_EXT_VERSION, 0, 0))
        with pytest.raises(FrameError, match="empty trace id"):
            decode_frame(header + bytes((len(ext),)) + ext + payload)

    def test_non_utf8_trace_id_rejected(self):
        header, _, payload = _split_traced(Ping(token=5), ("tr", None))
        ext = bytes((TRACE_EXT_VERSION, 2, 0xFF, 0xFE, 0))
        with pytest.raises(FrameError, match="UTF-8"):
            decode_frame(header + bytes((len(ext),)) + ext + payload)

    def test_stream_decoder_reassembles_mixed_traced_streams(self):
        frames = [
            (Ping(token=1), None),
            (Ping(token=2), ("d-0001.0", "d-000001")),
            (Ping(token=3), None),
            (Ping(token=4), ("s-0002.3e8", None)),
        ]
        stream = b"".join(
            encode_frame(m, REQUEST, i + 1, trace=t)
            for i, (m, t) in enumerate(frames)
        )
        for step in (1, 3, len(stream)):
            decoder = FrameDecoder()
            out = []
            for offset in range(0, len(stream), step):
                out.extend(decoder.feed(stream[offset:offset + step]))
            assert [(f.message, f.trace_id and (f.trace_id, f.parent_span))
                    for f in out] == [(m, t and t) for m, t in frames]
            assert [f.parent_span for f in out] == [None, "d-000001", None, None]

    def test_stream_decoder_buffers_partial_extension(self):
        raw = encode_frame(Ping(token=7), REQUEST, 2, trace=("tr-abc", "sp-def"))
        decoder = FrameDecoder()
        header_size = codec._HEADER.size
        # stop inside the extension: nothing emitted, nothing rejected
        assert decoder.feed(raw[:header_size + 3]) == []
        assert len(decoder._buffer) == header_size + 3
        frames = decoder.feed(raw[header_size + 3:])
        assert [f.trace_id for f in frames] == ["tr-abc"]


#: Hypothesis values every wire kind accepts (no NaN: frames compare by value).
_KIND_VALUES = {
    "u8": st.integers(0, (1 << 8) - 1),
    "u16": st.integers(0, (1 << 16) - 1),
    "u32": st.integers(0, (1 << 32) - 1),
    "u64": st.integers(0, (1 << 64) - 1),
    "i32": st.integers(-(1 << 31), (1 << 31) - 1),
    "f64": st.floats(allow_nan=False),
    "ip": st.integers(0, (1 << 32) - 1).map(IPv4Address),
    "str": st.text(st.characters(blacklist_categories=("Cs",)), max_size=40),
    "bytes": st.binary(max_size=64),
    "pairs": st.lists(
        st.tuples(st.integers(0, (1 << 32) - 1), st.floats(allow_nan=False)), max_size=8
    ).map(tuple),
}


def _messages(cls):
    return st.builds(cls, **{name: _KIND_VALUES[kind] for name, kind in cls.FIELDS})


_valid_messages = st.sampled_from(sorted(MESSAGE_TYPES)).flatmap(
    lambda msg_type: _messages(MESSAGE_TYPES[msg_type])
)
_traces = st.one_of(st.none(), st.just(("d-0001.2a", "d-000001")), st.just(("t", None)))
_frames = st.builds(
    lambda message, flags, request_id, trace: encode_frame(message, flags, request_id, trace),
    _valid_messages,
    st.sampled_from(_FLAGS),
    st.integers(0, (1 << 32) - 1),
    _traces,
)


def _outcome(decode, data):
    try:
        return decode(data)
    except WireError as exc:
        return type(exc), str(exc)


class TestDecodeFastPath:
    """``decode_frame``'s fast path (an untraced frame whose header and
    length check out) against the checked path every other input takes."""

    @settings(max_examples=300, deadline=None)
    @given(raw=_frames)
    def test_valid_frames_decode_alike_on_every_path(self, raw):
        frame = decode_frame(raw)
        assert frame == codec._decode_checked(raw) == FrameDecoder().feed(raw)[0]

    @settings(max_examples=300, deadline=None)
    @given(
        raw=_frames,
        cut=st.integers(0, 1 << 16),
        tail=st.binary(min_size=1, max_size=4),
        at=st.integers(0, 4),
        mask=st.integers(1, 255),
    )
    def test_broken_frames_raise_alike_on_both_paths(self, raw, cut, tail, at, mask):
        flipped = bytearray(raw)
        flipped[at] ^= mask  # magic, version, type or flags byte
        traced = bytearray(raw)
        traced[4] |= TRACE_FLAG
        for data in (raw[: cut % len(raw)], raw + tail, bytes(flipped), bytes(traced)):
            assert _outcome(decode_frame, data) == _outcome(codec._decode_checked, data)

    @settings(max_examples=300, deadline=None)
    @given(message=_valid_messages)
    def test_untraced_one_way_frames_re_encode_to_their_bytes(self, message):
        raw = encode_frame(message, ONEWAY, 0)
        assert encode_frame(decode_frame(raw).message, ONEWAY, 0) == raw

    @settings(max_examples=500, deadline=None)
    @given(message=_valid_messages, noise=st.binary(max_size=48))
    def test_every_decodable_one_way_frame_is_canonical(self, message, noise):
        """A frame's payload with arbitrary bits flipped — NaN bit
        patterns, any address — re-encodes to exactly itself whenever it
        still decodes."""
        head = codec._HEADER.size
        raw = bytearray(encode_frame(message, ONEWAY, 0))
        for at, bits in enumerate(noise[: len(raw) - head]):
            raw[head + at] ^= bits
        raw = bytes(raw)
        try:
            message = decode_frame(raw).message
        except WireError:
            return
        assert encode_frame(message, ONEWAY, 0) == raw
