"""``repro.net`` — the wire layer: binary codec and pluggable transports.

Everything the simulated runtime exchanges as in-memory callbacks exists
here as real bytes on a wire:

- :mod:`repro.net.codec` — a versioned, length-prefixed binary encoding
  of every ASAP protocol message (JOIN, CLOSE_SET_QUERY/REPLY, CALL_SETUP,
  RELAY_SETUP, MEDIA, KEEPALIVE, error frames, …) with strict validation:
  truncated or corrupt frames raise :class:`repro.errors.FrameError` /
  :class:`repro.errors.CodecError`, never hang;
- :mod:`repro.net.transport` — the message-transport interface service
  daemons are written against;
- :mod:`repro.net.loopback` — an in-process transport that drives the
  same codec deterministically under a virtual clock (byte-identical
  runs, CI-friendly);
- :mod:`repro.net.sockets` — real asyncio TCP on localhost or anywhere;
- :mod:`repro.net.shaped` — per-destination latency shaping, so real
  localhost sockets pay the scenario's RTTs.
"""

from repro.net.codec import (
    CODEC_SCHEMA_VERSION,
    ERROR,
    MESSAGE_TYPES,
    ONEWAY,
    REQUEST,
    RESPONSE,
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
)
from repro.net.shaped import ShapedTransport
from repro.net.loopback import LoopbackHub, LoopbackTransport
from repro.net.transport import Transport


def __getattr__(name: str):
    # The socket stack (asyncio) loads on first use, so importing the
    # codec — as the call flow in repro.core.dial does — stays light.
    if name == "TcpTransport":
        from repro.net.sockets import TcpTransport

        return TcpTransport
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "CODEC_SCHEMA_VERSION",
    "ERROR",
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
    "LoopbackHub",
    "LoopbackTransport",
    "MediaFrame",
    "NodalPublish",
    "Ping",
    "Pong",
    "RelayOk",
    "RelaySetup",
    "Resolve",
    "ResolveOk",
    "ShapedTransport",
    "TcpTransport",
    "Transport",
    "decode_frame",
    "encode_frame",
]
