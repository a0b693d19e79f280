"""Versioned, length-prefixed binary codec for ASAP protocol messages.

Frame layout (network byte order)::

    +-------+---------+------+-------+------------+---------+=======+=========+
    | magic | version | type | flags | request_id | length  | trace | payload |
    | 2 B   | 1 B     | 1 B  | 1 B   | 4 B        | 4 B     | var   | var     |
    +-------+---------+------+-------+------------+---------+=======+=========+

``magic`` is ``b"AS"``; ``version`` is :data:`CODEC_SCHEMA_VERSION`;
``type`` selects a registered message class; ``flags`` marks the frame
as one-way, request, response or error-response (transports use
``request_id`` to correlate the latter three); ``length`` counts payload
bytes only.

The optional ``trace`` segment exists only when the :data:`TRACE_FLAG`
bit is set in ``flags``: one ``u8`` total-extension length, then a
versioned trace context (``u8`` extension version, ``u8``-prefixed
trace-id string, ``u8``-prefixed parent-span-id string).  It carries the
sender's causal-trace context across process boundaries so a
cross-process ``serve`` + ``dial`` run yields one connected trace tree;
frames without the bit are byte-identical to the pre-extension wire
format, so old captures decode unchanged.

A message class's ``FIELDS`` table — ``(name, kind)`` pairs — is the
single schema source for its payload.  Every payload has one shape: a
*head* of fixed-width fields (``u8``…``u64``, ``i32``, ``f64``, ``ip``),
then at most one variable *tail* (a ``u16``-prefixed UTF-8 ``str``, a
``u32``-prefixed ``bytes``, or ``pairs``: a ``u32`` count of
``(u32 cluster, f64 rtt)`` entries — a close set).  Registration rejects
any other shape and compiles one ``struct.Struct`` per message covering
the frame header, the head and the tail's length prefix, so encoding a
frame is one check pass, one ``pack`` and the tail bytes.  A ``pairs``
tail decodes to a read-only :data:`PAIR_DTYPE` array (the wire layout
itself, 12 bytes per entry) and such an array encodes as its own bytes.

Strictness guarantees (the contract :mod:`tests.test_net_codec` pins):

- encoding is a pure function of the message — byte-deterministic;
- :func:`decode_frame` on truncated, trailing-garbage, bad-magic,
  wrong-version or unknown-type input raises
  :class:`repro.errors.FrameError`;
- a frame whose payload violates its message schema raises
  :class:`repro.errors.CodecError`;
- declared lengths are capped (:data:`MAX_PAYLOAD_BYTES`) so a corrupt
  length field can never cause an unbounded allocation or a hang.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, fields as dataclass_fields
from itertools import starmap
from operator import attrgetter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import CodecError, FrameError
from repro.netaddr import IPv4Address

__all__ = [
    "CODEC_SCHEMA_VERSION",
    "ERROR",
    "MAX_PAYLOAD_BYTES",
    "MESSAGE_TYPES",
    "ONEWAY",
    "PAIR_DTYPE",
    "REQUEST",
    "RESPONSE",
    "Bye",
    "CallAccept",
    "CallSetup",
    "CloseSetQuery",
    "CloseSetReply",
    "ErrorFrame",
    "Frame",
    "FrameDecoder",
    "Join",
    "JoinOk",
    "Keepalive",
    "KeepaliveAck",
    "Leave",
    "MediaFrame",
    "Message",
    "NodalPublish",
    "Ping",
    "Pong",
    "RelayOk",
    "RelaySetup",
    "Resolve",
    "ResolveOk",
    "TRACE_EXT_VERSION",
    "TRACE_FLAG",
    "decode_frame",
    "encode_frame",
    "pairs_table",
]

#: Bump when the frame layout or any message schema changes; decoders
#: reject every other version.
CODEC_SCHEMA_VERSION = 2

#: Hard cap on a declared payload length — a corrupt length field must
#: never trigger an unbounded read or allocation.
MAX_PAYLOAD_BYTES = 1 << 20

_MAGIC = b"AS"
_HEADER = struct.Struct("!2sBBBII")
_HEADER_SIZE = _HEADER.size
_unpack_header = _HEADER.unpack_from

# -- frame flags --------------------------------------------------------------

ONEWAY = 0    #: fire-and-forget; no response expected
REQUEST = 1   #: expects a RESPONSE (or ERROR) with the same request_id
RESPONSE = 2  #: successful answer to a REQUEST
ERROR = 3     #: error answer to a REQUEST; payload is an ErrorFrame

#: High bit of the flags byte: a trace-context extension segment follows
#: the fixed header (see the module docstring).  Orthogonal to the base
#: flag value, which stays one of the four above.
TRACE_FLAG = 0x80

#: Version byte leading the trace-context extension; decoders reject
#: every other value (the extension is independently versioned so it can
#: evolve without a full codec-schema bump).
TRACE_EXT_VERSION = 1

_FLAGS = frozenset((ONEWAY, REQUEST, RESPONSE, ERROR))

# -- field kinds --------------------------------------------------------------

_PAIR = struct.Struct("!Id")

#: One ``pairs`` entry as a numpy record: exactly its wire bytes.
PAIR_DTYPE = np.dtype([("cluster", ">u4"), ("rtt_ms", ">f8")])


def _check_unsigned(bits: int):
    top = (1 << bits) - 1

    def check(value) -> None:
        if not isinstance(value, int) or isinstance(value, bool):
            raise CodecError(f"u{bits} field needs an int, got {type(value).__name__}")
        if not 0 <= value <= top:
            raise CodecError(f"u{bits} value {value} out of range")

    return check


def _check_i32(value) -> None:
    if not isinstance(value, int) or isinstance(value, bool):
        raise CodecError(f"i32 field needs an int, got {type(value).__name__}")
    if not -(1 << 31) <= value < (1 << 31):
        raise CodecError(f"i32 value {value} out of range")


def _check_f64(value) -> None:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise CodecError(f"f64 field needs a number, got {type(value).__name__}")


def _check_ip(value) -> None:
    if not isinstance(value, IPv4Address):
        raise CodecError(f"ip field needs an IPv4Address, got {type(value).__name__}")


def _pack_str(value) -> bytes:
    if not isinstance(value, str):
        raise CodecError(f"str field needs a str, got {type(value).__name__}")
    raw = value.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise CodecError(f"string too long for the wire ({len(raw)} bytes)")
    return raw


def _read_str(data, start: int, end: int) -> str:
    try:
        return str(data[start:end], "utf-8")
    except UnicodeDecodeError as exc:
        raise CodecError("string field is not valid UTF-8") from exc


def _pack_bytes(value) -> bytes:
    if not isinstance(value, (bytes, bytearray)):
        raise CodecError(f"bytes field needs bytes, got {type(value).__name__}")
    if len(value) > MAX_PAYLOAD_BYTES:
        raise CodecError(f"bytes field too long ({len(value)} bytes)")
    return bytes(value)


def _read_bytes(data, start: int, end: int) -> bytes:
    return bytes(data[start:end])


def _is_table(value) -> bool:
    return type(value) is np.ndarray and value.dtype == PAIR_DTYPE and value.ndim == 1


def _pack_pairs(value) -> bytes:
    # A wire table is its own bytes; anything else is coerced and
    # checked pair by pair (its errors are the contract).
    return value.tobytes() if _is_table(value) else _pack_pairs_checked(value)


def _pack_pairs_checked(value) -> bytes:
    try:
        pairs = [(int(c), float(r)) for c, r in value]
    except (TypeError, ValueError) as exc:
        raise CodecError("pairs field needs an iterable of (int, float)") from exc
    for cluster, _ in pairs:
        if cluster < 0 or cluster > 0xFFFFFFFF:
            raise CodecError(f"pair cluster {cluster} out of u32 range")
    return b"".join(starmap(_PAIR.pack, pairs))


def _read_pairs(data, start: int, end: int) -> np.ndarray:
    # A private copy: the table never aliases a stream decoder's buffer.
    return np.frombuffer(bytes(data[start:end]), PAIR_DTYPE)


def pairs_table(value) -> np.ndarray:
    """``value`` as a :data:`PAIR_DTYPE` table: a table as it is, any
    other ``(cluster, rtt)`` pairs through the wire's checked packer
    (:class:`~repro.errors.CodecError` on what the wire refuses)."""
    return value if _is_table(value) else np.frombuffer(_pack_pairs(value), PAIR_DTYPE)


#: Head kinds: struct format character, value check, and the one type
#: whose values need no check because ``struct`` enforces the same
#: range (``ip`` packs as a u32 of the address value).
_HEAD_KINDS = {
    "u8": ("B", _check_unsigned(8), int),
    "u16": ("H", _check_unsigned(16), int),
    "u32": ("I", _check_unsigned(32), int),
    "u64": ("Q", _check_unsigned(64), int),
    "i32": ("i", _check_i32, int),
    "f64": ("d", _check_f64, float),
    "ip": ("I", _check_ip, IPv4Address),
}

#: Tail kinds: length-prefix format, payload bytes per counted unit,
#: packer (value -> body bytes, checked) and reader (data, start, end).
_TAIL_KINDS = {
    "str": ("H", 1, _pack_str, _read_str),
    "bytes": ("I", 1, _pack_bytes, _read_bytes),
    "pairs": ("I", _PAIR.size, _pack_pairs, _read_pairs),
}

# -- per-message compiled codecs ----------------------------------------------

#: wire type byte -> message class (filled by ``_register``).
MESSAGE_TYPES: Dict[int, type] = {}
#: message class -> ``encode(message, flags, request_id) -> frame bytes``.
_ENCODERS: Dict[type, Callable] = {}
#: wire type byte -> ``decode(data, start, end) -> message`` over a payload.
_DECODERS: Dict[int, Callable] = {}

_new = object.__new__


def _getter(names: List[str]) -> Callable:
    """An attribute getter that always returns a tuple."""
    if not names:
        return lambda message: ()
    if len(names) == 1:
        get = attrgetter(names[0])
        return lambda message: (get(message),)
    return attrgetter(*names)


def _check_all(checks, values) -> None:
    for check, value in zip(checks, values):
        check(value)


def _compile(cls) -> None:
    """Compile ``cls.FIELDS`` into its frame encoder and body decoder."""
    names = tuple(name for name, _ in cls.FIELDS)
    kinds = [kind for _, kind in cls.FIELDS]
    tail = kinds.pop() if kinds and kinds[-1] in _TAIL_KINDS else None
    if any(kind not in _HEAD_KINDS for kind in kinds):
        raise ValueError(
            f"{cls.__name__}: wire schema must be fixed-width fields then at most "
            f"one str/bytes/pairs field, got {[kind for _, kind in cls.FIELDS]}"
        )
    head = "".join(_HEAD_KINDS[kind][0] for kind in kinds)
    prefix, unit, pack_tail, read_tail = _TAIL_KINDS[tail] if tail else ("", 0, None, None)
    frame = struct.Struct(_HEADER.format + head + prefix)
    body = struct.Struct("!" + head + prefix)
    checks = tuple(_HEAD_KINDS[kind][1] for kind in kinds)
    types = tuple(_HEAD_KINDS[kind][2] for kind in kinds)
    values_of = _getter(names)
    types_of = _getter([f"{name}.__class__" for name in names[:len(kinds)]])
    # The head as packed: an ip field reaches through to its ``.value``;
    # the checks run first, so that attribute always resolves.
    wire_of = _getter(
        [f"{name}.value" if kind == "ip" else name for name, kind in zip(names, kinds)]
    )
    ips = tuple(index for index, kind in enumerate(kinds) if kind == "ip")
    pack, unpack_from, size = frame.pack, body.unpack_from, body.size
    msg_type, label = cls.TYPE, cls.__name__

    if tail is None:

        def encode(message, flags: int, request_id: int) -> bytes:
            # One check pass: exactly typed heads go straight to ``pack``,
            # and the checks name whatever it (or the type test) refuses.
            if types_of(message) != types:
                _check_all(checks, values_of(message))
            try:
                return pack(
                    _MAGIC, CODEC_SCHEMA_VERSION, msg_type, flags, request_id, size,
                    *wire_of(message),
                )
            except struct.error:
                _check_all(checks, values_of(message))
                raise

    else:

        def encode(message, flags: int, request_id: int) -> bytes:
            values = values_of(message)
            if types_of(message) != types:
                _check_all(checks, values)
            data = pack_tail(values[-1])
            length = size + len(data)
            if length > MAX_PAYLOAD_BYTES:
                raise CodecError(f"payload too large ({length} bytes)")
            try:
                packed = pack(
                    _MAGIC, CODEC_SCHEMA_VERSION, msg_type, flags, request_id, length,
                    *wire_of(message), len(data) // unit,
                )
            except struct.error:
                _check_all(checks, values)
                raise
            return packed + data

    def decode(data, start: int, end: int) -> Message:
        if end - start < size or (tail is None and end - start != size):
            raise CodecError(f"{label} payload is {end - start} bytes; fixed fields take {size}")
        values = list(unpack_from(data, start))
        for index in ips:
            values[index] = IPv4Address(values[index])
        if tail is not None:
            start += size
            # Exact length, so a count can never outrun the (capped) payload.
            if values[-1] * unit != end - start:
                raise CodecError(
                    f"{label} {tail} field declares {values[-1]} units, "
                    f"{end - start} bytes follow"
                )
            values[-1] = read_tail(data, start, end)
        message = _new(cls)
        message.__dict__.update(zip(names, values))
        return message

    _ENCODERS[cls] = encode
    _DECODERS[msg_type] = decode


# -- message classes ----------------------------------------------------------


class Message:
    """Base for wire messages; subclasses declare ``TYPE`` and ``FIELDS``.

    :func:`_register` compiles each class's ``FIELDS`` into its encoder
    and decoder (see the module docstring); a field whose value is not
    exactly of its kind's type is checked before the one combined pack.
    Only registered classes travel.
    """

    TYPE: int = -1
    FIELDS: Tuple[Tuple[str, str], ...] = ()


def _register(cls):
    """Class decorator: enter a message into the wire-type registry."""
    if cls.TYPE in MESSAGE_TYPES:
        raise ValueError(f"duplicate wire type {cls.TYPE:#x}")
    declared = tuple(f.name for f in dataclass_fields(cls))
    schema = tuple(name for name, _ in cls.FIELDS)
    if declared != schema:
        raise ValueError(
            f"{cls.__name__}: dataclass fields {declared} != wire schema {schema}"
        )
    _compile(cls)
    MESSAGE_TYPES[cls.TYPE] = cls
    return cls


#: Join roles on the wire.
ROLE_HOST = 0
ROLE_SURROGATE = 1


@_register
@dataclass(frozen=True)
class Join(Message):
    """Bootstrap registration (§6.1): a node enters the overlay.

    ``wire_addr`` is the node's advertised transport address (the
    bootstrap doubles as the overlay's directory); surrogates join with
    ``role=ROLE_SURROGATE`` and the cluster they serve, hosts with
    ``role=ROLE_HOST`` and ``cluster=-1`` (the bootstrap assigns one).
    """

    TYPE = 0x01
    FIELDS = (
        ("ip", "ip"),
        ("role", "u8"),
        ("cluster", "i32"),
        ("wire_addr", "str"),
    )

    ip: IPv4Address
    role: int
    cluster: int
    wire_addr: str


@_register
@dataclass(frozen=True)
class JoinOk(Message):
    """Bootstrap's answer: assigned cluster and its serving surrogate."""

    TYPE = 0x02
    FIELDS = (
        ("cluster", "i32"),
        ("surrogate_ip", "ip"),
        ("surrogate_addr", "str"),
    )

    cluster: int
    surrogate_ip: IPv4Address
    surrogate_addr: str


@_register
@dataclass(frozen=True)
class Resolve(Message):
    """Directory lookup: which wire address serves this overlay IP?"""

    TYPE = 0x03
    FIELDS = (("ip", "ip"),)

    ip: IPv4Address


@_register
@dataclass(frozen=True)
class ResolveOk(Message):
    TYPE = 0x04
    FIELDS = (("ip", "ip"), ("found", "u8"), ("addr", "str"))

    ip: IPv4Address
    found: int
    addr: str


@_register
@dataclass(frozen=True)
class Ping(Message):
    """Direct-path probe (Fig. 8 step 1)."""

    TYPE = 0x05
    FIELDS = (("token", "u32"),)

    token: int


@_register
@dataclass(frozen=True)
class Pong(Message):
    TYPE = 0x06
    FIELDS = (("token", "u32"),)

    token: int


@_register
@dataclass(frozen=True)
class CloseSetQuery(Message):
    """Close-cluster-set request — to a surrogate (own leg) or to the
    callee, which relays it to *its* surrogate (peer leg, Fig. 8)."""

    TYPE = 0x07
    FIELDS = (("cluster", "i32"), ("requester_ip", "ip"))

    cluster: int          # -1 = "the cluster you serve / belong to"
    requester_ip: IPv4Address


@_register
@dataclass(frozen=True)
class CloseSetReply(Message):
    """A close cluster set on the wire: (cluster index, RTT ms) entries.

    ``entries`` is a :data:`PAIR_DTYPE` table — what decoding yields —
    or any sequence of ``(cluster, rtt)`` pairs; replies compare by the
    owner and the entries' wire values."""

    TYPE = 0x08
    FIELDS = (("owner", "i32"), ("entries", "pairs"))

    owner: int
    entries: np.ndarray

    def __eq__(self, other) -> bool:
        if type(other) is not CloseSetReply:
            return NotImplemented
        return self.owner == other.owner and np.array_equal(
            pairs_table(self.entries), pairs_table(other.entries)
        )


@_register
@dataclass(frozen=True)
class NodalPublish(Message):
    """Nodal-information publish to the cluster surrogate (§6.1)."""

    TYPE = 0x09
    FIELDS = (
        ("ip", "ip"),
        ("bandwidth_kbps", "f64"),
        ("uptime_hours", "f64"),
        ("cpu_score", "f64"),
    )

    ip: IPv4Address
    bandwidth_kbps: float
    uptime_hours: float
    cpu_score: float


@_register
@dataclass(frozen=True)
class CallSetup(Message):
    """Caller → callee: a call is starting on the given path."""

    TYPE = 0x0A
    FIELDS = (("call_id", "u64"), ("caller_ip", "ip"), ("callee_ip", "ip"))

    call_id: int
    caller_ip: IPv4Address
    callee_ip: IPv4Address


@_register
@dataclass(frozen=True)
class CallAccept(Message):
    TYPE = 0x0B
    FIELDS = (("call_id", "u64"), ("accept", "u8"))

    call_id: int
    accept: int


@_register
@dataclass(frozen=True)
class RelaySetup(Message):
    """Caller → chosen relay host: carry this call's media."""

    TYPE = 0x0C
    FIELDS = (("call_id", "u64"), ("caller_ip", "ip"), ("callee_ip", "ip"))

    call_id: int
    caller_ip: IPv4Address
    callee_ip: IPv4Address


@_register
@dataclass(frozen=True)
class RelayOk(Message):
    TYPE = 0x0D
    FIELDS = (("call_id", "u64"),)

    call_id: int


@_register
@dataclass(frozen=True)
class MediaFrame(Message):
    """One timestamped codec frame of voice (the `repro.media` plane);
    relays forward it toward the callee.

    A frame carries its send timestamp (sim-time ms) and the wire id of
    the codec that produced it, so the receiver can reconstruct a
    playout-scoreable trace."""

    TYPE = 0x14
    FIELDS = (
        ("call_id", "u64"),
        ("seq", "u32"),
        ("timestamp_ms", "f64"),
        ("codec", "u8"),
        ("payload", "bytes"),
    )

    call_id: int
    seq: int
    timestamp_ms: float
    codec: int
    payload: bytes


@_register
@dataclass(frozen=True)
class Keepalive(Message):
    """In-call liveness probe to the relay (drives §6 backup failover)."""

    TYPE = 0x0F
    FIELDS = (("call_id", "u64"), ("seq", "u32"))

    call_id: int
    seq: int


@_register
@dataclass(frozen=True)
class KeepaliveAck(Message):
    TYPE = 0x10
    FIELDS = (("call_id", "u64"), ("seq", "u32"))

    call_id: int
    seq: int


@_register
@dataclass(frozen=True)
class Bye(Message):
    """Call teardown to the callee and any relay."""

    TYPE = 0x11
    FIELDS = (("call_id", "u64"), ("reason", "str"))

    call_id: int
    reason: str


@_register
@dataclass(frozen=True)
class Leave(Message):
    """Bootstrap deregistration (oneway): a node exits the overlay.

    Best-effort — a crashed node never sends one, so the directory's
    TTL sweep remains the authoritative garbage collector."""

    TYPE = 0x13
    FIELDS = (("ip", "ip"),)

    ip: IPv4Address


@_register
@dataclass(frozen=True)
class ErrorFrame(Message):
    """Error response payload (flags=ERROR frames carry exactly this)."""

    TYPE = 0x12
    FIELDS = (("code", "u16"), ("detail", "str"))

    code: int
    detail: str


#: Error codes carried by :class:`ErrorFrame`.
ERR_UNSUPPORTED = 1   #: receiver has no handler for the message type
ERR_INTERNAL = 2      #: handler raised
ERR_NOT_SERVING = 3   #: role cannot satisfy the request (e.g. not joined)


# -- frame encode / decode ----------------------------------------------------


@dataclass(frozen=True)
class Frame:
    """A decoded wire frame: the message plus its envelope.

    ``trace_id``/``parent_span`` carry the sender's causal-trace context
    when the frame had a trace extension; ``None`` otherwise.
    """

    message: Message
    flags: int = ONEWAY
    request_id: int = 0
    trace_id: "Optional[str]" = None
    parent_span: "Optional[str]" = None


def _frame(message, flags, request_id, trace_id, parent_span) -> Frame:
    """A decoded :class:`Frame`, filled without the frozen ``__init__``."""
    frame = _new(Frame)
    fields = frame.__dict__
    fields["message"] = message
    fields["flags"] = flags
    fields["request_id"] = request_id
    fields["trace_id"] = trace_id
    fields["parent_span"] = parent_span
    return frame


def _encode_trace_ext(trace) -> bytes:
    """Pack a ``(trace_id, parent_span_id)`` context into its segment."""
    trace_id, parent_span = trace
    if not isinstance(trace_id, str) or not trace_id:
        raise CodecError("trace context needs a non-empty trace id string")
    tid = trace_id.encode("utf-8")
    sid = (parent_span or "").encode("utf-8")
    if len(tid) > 0xFF or len(sid) > 0xFF:
        raise CodecError("trace context ids too long for the wire")
    ext = bytes((TRACE_EXT_VERSION, len(tid))) + tid + bytes((len(sid),)) + sid
    if len(ext) > 0xFF:
        raise CodecError(f"trace extension too long ({len(ext)} bytes)")
    return bytes((len(ext),)) + ext


def _parse_trace_ext(ext: bytes) -> Tuple[str, "Optional[str]"]:
    """Unpack a complete extension body (version + two prefixed strings)."""
    if len(ext) < 2:
        raise FrameError(f"trace extension truncated ({len(ext)} bytes)")
    version = ext[0]
    if version != TRACE_EXT_VERSION:
        raise FrameError(f"unsupported trace extension version {version}")
    tid_len = ext[1]
    pos = 2
    if pos + tid_len + 1 > len(ext):
        raise FrameError("trace extension truncated inside trace id")
    if not tid_len:
        raise FrameError("trace extension has an empty trace id")
    try:
        trace_id = bytes(ext[pos:pos + tid_len]).decode("utf-8")
        pos += tid_len
        sid_len = ext[pos]
        pos += 1
        if pos + sid_len != len(ext):
            raise FrameError("trace extension length mismatch")
        parent_span = (
            bytes(ext[pos:pos + sid_len]).decode("utf-8") if sid_len else None
        )
    except UnicodeDecodeError as exc:
        raise FrameError("trace extension ids are not valid UTF-8") from exc
    return trace_id, parent_span


def encode_frame(
    message: Message,
    flags: int = ONEWAY,
    request_id: int = 0,
    trace: "Optional[Tuple[str, Optional[str]]]" = None,
) -> bytes:
    """Encode one message into its full wire frame (deterministic).

    ``trace`` optionally attaches a ``(trace_id, parent_span_id)``
    causal context; the frame then carries the :data:`TRACE_FLAG` bit
    and the versioned trace segment.  Without it the bytes are identical
    to the pre-extension wire format.
    """
    encode = _ENCODERS.get(type(message))
    if encode is None:
        raise CodecError(f"unregistered message type {type(message).__name__}")
    # Plain ints only: a bool or a float must not pass as a flag or an id.
    if type(flags) is not int or flags not in _FLAGS:
        raise CodecError(f"invalid frame flags {flags!r}")
    if type(request_id) is not int or not 0 <= request_id <= 0xFFFFFFFF:
        raise CodecError(f"request_id {request_id!r} is not a u32")
    if trace is None:
        return encode(message, flags, request_id)
    frame = encode(message, flags | TRACE_FLAG, request_id)
    return frame[:_HEADER.size] + _encode_trace_ext(trace) + frame[_HEADER.size:]


def _decode_header(data, offset: int = 0) -> Tuple[int, int, int, int, bool]:
    """Validate a header at ``offset``.

    Returns ``(type, base_flags, req_id, payload_length, has_trace)``;
    ``has_trace`` means a trace extension segment follows the fixed
    header (its length byte is *not* included in ``payload_length``).
    Raises :class:`FrameError` on anything but a well-formed current-
    version header (including a header shorter than the fixed size).
    """
    if len(data) - offset < _HEADER.size:
        raise FrameError(
            f"truncated frame: {len(data) - offset} bytes, "
            f"header needs {_HEADER.size}"
        )
    magic, version, msg_type, flags, request_id, length = _HEADER.unpack_from(
        data, offset
    )
    if magic != _MAGIC:
        raise FrameError(f"bad magic {magic!r}")
    if version != CODEC_SCHEMA_VERSION:
        raise FrameError(
            f"unsupported codec schema {version} (expected {CODEC_SCHEMA_VERSION})"
        )
    if msg_type not in MESSAGE_TYPES:
        raise FrameError(f"unknown message type {msg_type:#x}")
    has_trace = bool(flags & TRACE_FLAG)
    base_flags = flags & ~TRACE_FLAG
    if base_flags not in _FLAGS:
        raise FrameError(f"unknown frame flags {flags:#x}")
    if length > MAX_PAYLOAD_BYTES:
        raise FrameError(f"declared payload {length} exceeds cap {MAX_PAYLOAD_BYTES}")
    return msg_type, base_flags, request_id, length, has_trace


def decode_frame(data: bytes) -> Frame:
    """Strictly decode exactly one frame from ``data``.

    The buffer must hold one complete frame and nothing else: truncation
    and trailing garbage both raise :class:`FrameError`; payload-schema
    violations raise :class:`CodecError`.
    """
    # Fast path: an untraced frame whose header checks out and whose
    # declared length is exactly what follows goes straight to its body
    # decoder; anything else takes the checked path below, which raises.
    size = len(data)
    if size >= _HEADER_SIZE:
        magic, version, msg_type, flags, request_id, length = _unpack_header(data)
        if (
            magic == _MAGIC
            and version == CODEC_SCHEMA_VERSION
            and flags in _FLAGS
            and length == size - _HEADER_SIZE
            and length <= MAX_PAYLOAD_BYTES
            and msg_type in _DECODERS
        ):
            message = _DECODERS[msg_type](data, _HEADER_SIZE, size)
            frame = _new(Frame)
            fields = frame.__dict__
            fields["message"] = message
            fields["flags"] = flags
            fields["request_id"] = request_id
            fields["trace_id"] = None
            fields["parent_span"] = None
            return frame
    return _decode_checked(data)


def _decode_checked(data) -> Frame:
    """:func:`decode_frame` for any input: every header and length check
    in turn, raising on the first that fails."""
    msg_type, flags, request_id, length, has_trace = _decode_header(data)
    body_start = _HEADER.size
    trace_id = parent_span = None
    if has_trace:
        if len(data) < _HEADER.size + 1:
            raise FrameError("truncated frame: trace extension length missing")
        ext_len = data[_HEADER.size]
        body_start = _HEADER.size + 1 + ext_len
        if len(data) < body_start:
            raise FrameError(
                f"truncated frame: trace extension declares {ext_len} bytes"
            )
        trace_id, parent_span = _parse_trace_ext(
            data[_HEADER.size + 1:body_start]
        )
    body_end = body_start + length
    if len(data) < body_end:
        raise FrameError(
            f"truncated frame: payload declares {length} bytes, "
            f"{len(data) - body_start} present"
        )
    if len(data) > body_end:
        raise FrameError(f"{len(data) - body_end} trailing bytes after frame")
    message = _DECODERS[msg_type](data, body_start, body_end)
    return _frame(message, flags, request_id, trace_id, parent_span)


class FrameDecoder:
    """Incremental frame reassembly for stream transports.

    Feed arbitrary byte chunks; complete frames come back in order.  A
    partial frame is buffered until its remainder arrives (that is the
    one place "truncated" is not an error — the stream may simply not
    have delivered the rest yet); corrupt headers and payloads raise
    immediately, poisoning the decoder (a stream that desynchronized
    cannot be trusted again).
    """

    __slots__ = ("_buffer", "_poisoned")

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._poisoned = False

    def feed(self, data: bytes) -> List[Frame]:
        """Add bytes; return every frame completed by them.

        Frames decode in place, by offset into the buffer (the body
        decoders copy only what a message keeps); consumed frames are
        trimmed once at the end.
        """
        if self._poisoned:
            raise FrameError("decoder poisoned by an earlier corrupt frame")
        buffer = self._buffer
        buffer.extend(data)
        frames: List[Frame] = []
        consumed = 0
        try:
            while len(buffer) - consumed >= _HEADER.size:
                msg_type, flags, request_id, length, has_trace = _decode_header(
                    buffer, consumed
                )
                body_start = consumed + _HEADER.size
                trace_id = parent_span = None
                if has_trace:
                    if len(buffer) < body_start + 1:
                        break  # the extension length byte is still in flight
                    body_start += 1 + buffer[body_start]
                end = body_start + length
                if len(buffer) < end:
                    break
                if has_trace:
                    trace_id, parent_span = _parse_trace_ext(
                        buffer[consumed + _HEADER.size + 1:body_start]
                    )
                message = _DECODERS[msg_type](buffer, body_start, end)
                frames.append(_frame(message, flags, request_id, trace_id, parent_span))
                consumed = end
        except (FrameError, CodecError):
            self._poisoned = True
            raise
        finally:
            if consumed:
                del buffer[:consumed]
        return frames
