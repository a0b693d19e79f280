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

Message payloads are packed field-by-field from each message class's
``FIELDS`` declaration — a table of ``(name, kind)`` pairs over a small
set of primitive kinds (fixed-width integers, IEEE-754 doubles,
length-prefixed strings/bytes, and ``(u32, f64)`` pair lists for close
sets).  The table is the single schema source: encoding, decoding, the
round-trip property tests and the microbenchmarks all derive from it,
so a message class cannot drift from its wire form.

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

import operator
import struct
from dataclasses import dataclass, fields as dataclass_fields
from itertools import starmap
from typing import Dict, List, Optional, Tuple

from repro.errors import CodecError, FrameError
from repro.netaddr import IPv4Address

__all__ = [
    "CODEC_SCHEMA_VERSION",
    "ERROR",
    "MAX_PAYLOAD_BYTES",
    "MESSAGE_TYPES",
    "ONEWAY",
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
    "Media",
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
]

#: Bump when the frame layout or any message schema changes; decoders
#: reject every other version.
CODEC_SCHEMA_VERSION = 1

#: Hard cap on a declared payload length — a corrupt length field must
#: never trigger an unbounded read or allocation.
MAX_PAYLOAD_BYTES = 1 << 20

_MAGIC = b"AS"
_HEADER = struct.Struct("!2sBBBII")

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

# -- primitive field kinds ----------------------------------------------------

_U8 = struct.Struct("!B")
_U16 = struct.Struct("!H")
_U32 = struct.Struct("!I")
_U64 = struct.Struct("!Q")
_I32 = struct.Struct("!i")
_F64 = struct.Struct("!d")
_PAIR = struct.Struct("!Id")


def _need(data: bytes, offset: int, count: int, what: str) -> None:
    if offset + count > len(data):
        raise CodecError(f"payload truncated reading {what}")


class _Kind:
    """One primitive wire kind: pack into a buffer / unpack at an offset."""

    __slots__ = ("name", "pack", "unpack")

    def __init__(self, name, pack, unpack) -> None:
        self.name = name
        self.pack = pack        # (out: List[bytes], value) -> None
        self.unpack = unpack    # (data, offset) -> (value, new_offset)


def _fixed_kind(name: str, fmt: struct.Struct, check=None) -> _Kind:
    def pack(out: List[bytes], value) -> None:
        if check is not None:
            check(value)
        try:
            out.append(fmt.pack(value))
        except (struct.error, TypeError) as exc:
            raise CodecError(f"cannot pack {name} value {value!r}") from exc

    def unpack(data: bytes, offset: int):
        _need(data, offset, fmt.size, name)
        return fmt.unpack_from(data, offset)[0], offset + fmt.size

    return _Kind(name, pack, unpack)


def _check_ip(value) -> None:
    if not isinstance(value, IPv4Address):
        raise CodecError(f"ip field needs an IPv4Address, got {type(value).__name__}")


def _pack_ip(out: List[bytes], value) -> None:
    _check_ip(value)
    out.append(_U32.pack(value.value))


def _unpack_ip(data: bytes, offset: int):
    _need(data, offset, 4, "ip")
    return IPv4Address(_U32.unpack_from(data, offset)[0]), offset + 4


def _pack_str(out: List[bytes], value) -> None:
    if not isinstance(value, str):
        raise CodecError(f"str field needs a str, got {type(value).__name__}")
    raw = value.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise CodecError(f"string too long for the wire ({len(raw)} bytes)")
    out.append(_U16.pack(len(raw)))
    out.append(raw)


def _unpack_str(data: bytes, offset: int):
    _need(data, offset, 2, "str length")
    size = _U16.unpack_from(data, offset)[0]
    offset += 2
    _need(data, offset, size, "str body")
    try:
        return bytes(data[offset:offset + size]).decode("utf-8"), offset + size
    except UnicodeDecodeError as exc:
        raise CodecError("string field is not valid UTF-8") from exc


def _pack_bytes(out: List[bytes], value) -> None:
    if not isinstance(value, (bytes, bytearray)):
        raise CodecError(f"bytes field needs bytes, got {type(value).__name__}")
    if len(value) > MAX_PAYLOAD_BYTES:
        raise CodecError(f"bytes field too long ({len(value)} bytes)")
    out.append(_U32.pack(len(value)))
    out.append(bytes(value))


def _unpack_bytes(data: bytes, offset: int):
    _need(data, offset, 4, "bytes length")
    size = _U32.unpack_from(data, offset)[0]
    offset += 4
    if size > MAX_PAYLOAD_BYTES:
        raise CodecError(f"bytes field declares {size} bytes (cap {MAX_PAYLOAD_BYTES})")
    _need(data, offset, size, "bytes body")
    return bytes(data[offset:offset + size]), offset + size


def _pack_pairs(out: List[bytes], value) -> None:
    # One C-level pass packing pair after pair with the compiled ``_PAIR``
    # (no per-length format); anything it refuses goes the checked way.
    try:
        out.append(_U32.pack(len(value)) + b"".join(starmap(_PAIR.pack, value)))
    except (struct.error, TypeError, ValueError):
        _pack_pairs_checked(out, value)


def _pack_pairs_checked(out: List[bytes], value) -> None:
    try:
        pairs = [(int(c), float(r)) for c, r in value]
    except (TypeError, ValueError) as exc:
        raise CodecError("pairs field needs an iterable of (int, float)") from exc
    out.append(_U32.pack(len(pairs)))
    for cluster, rtt in pairs:
        if cluster < 0 or cluster > 0xFFFFFFFF:
            raise CodecError(f"pair cluster {cluster} out of u32 range")
        out.append(_PAIR.pack(cluster, rtt))


def _unpack_pairs(data: bytes, offset: int):
    _need(data, offset, 4, "pairs count")
    count = _U32.unpack_from(data, offset)[0]
    offset += 4
    if count * _PAIR.size > MAX_PAYLOAD_BYTES:
        raise CodecError(f"pairs field declares {count} entries")
    _need(data, offset, count * _PAIR.size, "pairs body")
    end = offset + count * _PAIR.size
    return tuple(_PAIR.iter_unpack(bytes(data[offset:end]))), end


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


_CHECK_U8 = _check_unsigned(8)
_CHECK_U16 = _check_unsigned(16)
_CHECK_U32 = _check_unsigned(32)
_CHECK_U64 = _check_unsigned(64)

KINDS: Dict[str, _Kind] = {
    "u8": _fixed_kind("u8", _U8, _CHECK_U8),
    "u16": _fixed_kind("u16", _U16, _CHECK_U16),
    "u32": _fixed_kind("u32", _U32, _CHECK_U32),
    "u64": _fixed_kind("u64", _U64, _CHECK_U64),
    "i32": _fixed_kind("i32", _I32, _check_i32),
    "f64": _fixed_kind("f64", _F64, _check_f64),
    "ip": _Kind("ip", _pack_ip, _unpack_ip),
    "str": _Kind("str", _pack_str, _unpack_str),
    "bytes": _Kind("bytes", _pack_bytes, _unpack_bytes),
    "pairs": _Kind("pairs", _pack_pairs, _unpack_pairs),
}

# -- compiled per-message segment plans ---------------------------------------

#: Fixed-width kinds foldable into one combined struct per run, with
#: their format characters and value checks.  ``ip`` packs as a u32 of
#: the address value.
_FIXED_SEGMENT_KINDS = {
    "u8": ("B", _CHECK_U8),
    "u16": ("H", _CHECK_U16),
    "u32": ("I", _CHECK_U32),
    "u64": ("Q", _CHECK_U64),
    "i32": ("i", _check_i32),
    "f64": ("d", _check_f64),
    "ip": ("I", _check_ip),
}


def _compile_segments(fields: Tuple[Tuple[str, str], ...]):
    """Compile a FIELDS table into a segment plan.

    Consecutive fixed-width fields collapse into one precompiled
    ``struct.Struct`` — one pack/unpack call instead of one per field —
    while variable-length fields keep their per-kind codecs.  Segments
    are ``("fixed", struct, names, checks, ip_positions)`` (parallel
    tuples, with ``ip_positions`` indexing the IPv4 members needing
    value conversion) or ``("var", name, kind_codec)`` holding the
    :class:`_Kind` object itself — everything the hot path touches is
    resolved at compile time, not per call.
    """
    segments = []
    run: List[Tuple[str, str]] = []

    def flush() -> None:
        if not run:
            return
        fmt = struct.Struct("!" + "".join(_FIXED_SEGMENT_KINDS[kind][0] for _, kind in run))
        names = tuple(name for name, _ in run)
        checks = tuple(_FIXED_SEGMENT_KINDS[kind][1] for _, kind in run)
        ip_positions = tuple(
            index for index, (_, kind) in enumerate(run) if kind == "ip"
        )
        segments.append(("fixed", fmt, names, checks, ip_positions))
        run.clear()

    for name, kind in fields:
        if kind not in KINDS:
            raise ValueError(f"unknown wire kind {kind!r} for field {name!r}")
        if kind in _FIXED_SEGMENT_KINDS:
            run.append((name, kind))
        else:
            flush()
            segments.append(("var", name, KINDS[kind]))
    flush()
    return tuple(segments)


def _compile_pack(segments):
    """Compile a segment plan into a specialized ``pack_payload``.

    Each segment becomes a closure with its struct, checks, and field
    getters already bound; the common single-fixed-segment messages
    (Ping, Keepalive, CallSetup, ...) collapse to a single check+pack
    call with no intermediate list at all.
    """

    def fixed_step(fmt, names, checks, ip_positions):
        pack = fmt.pack

        if len(names) == 1:
            name, check = names[0], checks[0]
            if ip_positions:

                def step(message) -> bytes:
                    value = getattr(message, name)
                    check(value)
                    return pack(value.value)

            else:

                def step(message) -> bytes:
                    value = getattr(message, name)
                    check(value)
                    return pack(value)

            return step

        getter = operator.attrgetter(*names)

        if ip_positions:
            # A second getter reaches straight through to the packed
            # ``.value`` ints; the checks above guarantee it resolves.
            wire_getter = operator.attrgetter(
                *(
                    f"{name}.value" if position in ip_positions else name
                    for position, name in enumerate(names)
                )
            )

            def step(message) -> bytes:
                for check, value in zip(checks, getter(message)):
                    check(value)
                return pack(*wire_getter(message))

        else:

            def step(message) -> bytes:
                values = getter(message)
                for check, value in zip(checks, values):
                    check(value)
                return pack(*values)

        return step

    steps = []
    for segment in segments:
        if segment[0] == "fixed":
            steps.append(fixed_step(*segment[1:]))
        else:
            _, name, kind = segment
            kind_pack = kind.pack

            def step(message, name=name, kind_pack=kind_pack) -> bytes:
                out: List[bytes] = []
                kind_pack(out, getattr(message, name))
                return b"".join(out)

            steps.append(step)

    if len(steps) == 1:
        return steps[0]
    if len(steps) == 2:
        first, second = steps

        def pack_payload(self) -> bytes:
            return first(self) + second(self)

        return pack_payload

    def pack_payload(self) -> bytes:
        return b"".join([step(self) for step in steps])

    return pack_payload


def _compile_unpack(segments, cls):
    """Compile a segment plan into a specialized ``unpack_payload``.

    ``_register`` verifies the wire schema matches the dataclass field
    order, so decoded values feed the constructor positionally — no
    kwargs dict on the hot path.  The all-fixed messages (Ping, Media
    envelope-free frames, ...) collapse to one exact-length check and
    one combined struct unpack.
    """
    if len(segments) == 1 and segments[0][0] == "fixed":
        _, fmt, names, checks, ip_positions = segments[0]
        size = fmt.size
        unpack = fmt.unpack
        label = cls.__name__

        if ip_positions:

            def unpack_payload(data) -> "Message":
                if len(data) != size:
                    raise CodecError(
                        f"{label} payload is {len(data)} bytes, expected {size}"
                    )
                values = list(unpack(data))
                for position in ip_positions:
                    values[position] = IPv4Address(values[position])
                return cls(*values)

        else:

            def unpack_payload(data) -> "Message":
                if len(data) != size:
                    raise CodecError(
                        f"{label} payload is {len(data)} bytes, expected {size}"
                    )
                return cls(*unpack(data))

        return staticmethod(unpack_payload)

    plan = segments
    label = cls.__name__

    def unpack_payload(data) -> "Message":
        offset = 0
        values: List = []
        for segment in plan:
            if segment[0] == "fixed":
                _, fmt, _names, _checks, ip_positions = segment
                _need(data, offset, fmt.size, f"{label} fixed fields")
                unpacked = fmt.unpack_from(data, offset)
                if ip_positions:
                    unpacked = list(unpacked)
                    for position in ip_positions:
                        unpacked[position] = IPv4Address(unpacked[position])
                values.extend(unpacked)
                offset += fmt.size
            else:
                value, offset = segment[2].unpack(data, offset)
                values.append(value)
        if offset != len(data):
            raise CodecError(
                f"{label} payload has {len(data) - offset} trailing bytes"
            )
        return cls(*values)

    return staticmethod(unpack_payload)

# -- message classes ----------------------------------------------------------

#: wire type byte -> message class (filled by ``_register``).
MESSAGE_TYPES: Dict[int, type] = {}


class Message:
    """Base for wire messages; subclasses declare ``TYPE`` and ``FIELDS``.

    :func:`_register` compiles each class's segment plan
    (:func:`_compile_segments`) into its ``pack_payload`` /
    ``unpack_payload`` (the latter takes ``bytes`` or a zero-copy
    ``memoryview``): every run of fixed-width fields is one combined
    struct call, and per-field value checks still run before each
    combined pack, so the error contract of the per-kind reference path
    is preserved exactly.  Only registered classes travel.
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
    cls._SEGMENT_PLAN = _compile_segments(cls.FIELDS)
    cls.pack_payload = _compile_pack(cls._SEGMENT_PLAN)
    cls.unpack_payload = _compile_unpack(cls._SEGMENT_PLAN, cls)
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
    """A close cluster set on the wire: (cluster index, RTT ms) pairs."""

    TYPE = 0x08
    FIELDS = (("owner", "i32"), ("entries", "pairs"))

    owner: int
    entries: Tuple[Tuple[int, float], ...]


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
class Media(Message):
    """One media packet; relays forward it toward the callee."""

    TYPE = 0x0E
    FIELDS = (("call_id", "u64"), ("seq", "u32"), ("payload", "bytes"))

    call_id: int
    seq: int
    payload: bytes


@_register
@dataclass(frozen=True)
class MediaFrame(Message):
    """One timestamped codec frame of real media (the `repro.media` plane).

    Unlike the abstract :class:`Media` packet, a frame carries its send
    timestamp (sim-time ms) and the wire id of the codec that produced
    it, so the receiver can reconstruct a playout-scoreable trace."""

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
    if type(message).TYPE not in MESSAGE_TYPES:
        raise CodecError(f"unregistered message type {type(message).__name__}")
    if flags not in _FLAGS:
        raise CodecError(f"invalid frame flags {flags!r}")
    if not 0 <= request_id <= 0xFFFFFFFF:
        raise CodecError(f"request_id {request_id} out of u32 range")
    payload = message.pack_payload()
    if len(payload) > MAX_PAYLOAD_BYTES:
        raise CodecError(f"payload too large ({len(payload)} bytes)")
    if trace is None:
        header = _HEADER.pack(
            _MAGIC, CODEC_SCHEMA_VERSION, type(message).TYPE, flags,
            request_id, len(payload),
        )
        return header + payload
    header = _HEADER.pack(
        _MAGIC, CODEC_SCHEMA_VERSION, type(message).TYPE, flags | TRACE_FLAG,
        request_id, len(payload),
    )
    return header + _encode_trace_ext(trace) + payload


def _decode_header(data: bytes, offset: int = 0) -> Tuple[int, int, int, int, bool]:
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
    # One-shot decode: a plain bytes slice beats a memoryview here (the
    # view's create/release overhead outweighs the single small copy);
    # the streaming FrameDecoder is where views pay off.
    message = MESSAGE_TYPES[msg_type].unpack_payload(data[body_start:body_end])
    return Frame(
        message=message, flags=flags, request_id=request_id,
        trace_id=trace_id, parent_span=parent_span,
    )


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

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered toward the next (incomplete) frame."""
        return len(self._buffer)

    def feed(self, data: bytes) -> List[Frame]:
        """Add bytes; return every frame completed by them.

        The loop decodes straight out of a ``memoryview`` over the
        buffer — no per-frame copy of the pending bytes; consumed frames
        are trimmed once at the end (views are released first, since a
        ``bytearray`` cannot shrink while exports exist).
        """
        if self._poisoned:
            raise FrameError("decoder poisoned by an earlier corrupt frame")
        self._buffer.extend(data)
        frames: List[Frame] = []
        buffer = self._buffer
        consumed = 0
        view = memoryview(buffer)
        try:
            while len(buffer) - consumed >= _HEADER.size:
                try:
                    msg_type, flags, request_id, length, has_trace = _decode_header(
                        view, consumed
                    )
                except FrameError:
                    self._poisoned = True
                    raise
                body_start = consumed + _HEADER.size
                trace_id = parent_span = None
                if has_trace:
                    if len(buffer) < body_start + 1:
                        break  # the extension length byte is still in flight
                    ext_len = buffer[body_start]
                    body_start += 1 + ext_len
                end = body_start + length
                if len(buffer) < end:
                    break
                if has_trace:
                    ext = view[consumed + _HEADER.size + 1:body_start]
                    try:
                        trace_id, parent_span = _parse_trace_ext(ext)
                    except FrameError:
                        self._poisoned = True
                        raise
                    finally:
                        ext.release()
                payload = view[body_start:end]
                try:
                    message = MESSAGE_TYPES[msg_type].unpack_payload(payload)
                except (FrameError, CodecError):
                    self._poisoned = True
                    raise
                finally:
                    payload.release()
                frames.append(
                    Frame(
                        message=message, flags=flags, request_id=request_id,
                        trace_id=trace_id, parent_span=parent_span,
                    )
                )
                consumed = end
        finally:
            view.release()
            if consumed:
                del buffer[:consumed]
        return frames
