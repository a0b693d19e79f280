"""The message-transport interface service daemons are written against.

A transport moves :class:`repro.net.codec.Message` objects between
addressed endpoints, always through the wire codec (every delivery is an
encode → bytes → decode round trip, whichever transport carries the
bytes).  Two implementations ship:

- :class:`repro.net.loopback.LoopbackTransport` — in-process, virtual
  clock, deterministic (same program + same seed → byte-identical runs);
- :class:`repro.net.sockets.TcpTransport` — real asyncio TCP sockets.

Handlers are async callables ``handler(sender_addr, frame) -> Message |
None``; for ``REQUEST`` frames the returned message is sent back as the
response (``None`` or a raised error becomes an ``ERROR`` frame).  Time
always comes from :meth:`Transport.now_ms` — the loopback's virtual
clock or the socket transport's monotonic clock — never from
``time.time()``, so instrumented daemons are clock-agnostic.
"""

from __future__ import annotations

import abc
from typing import Awaitable, Callable, Optional, Tuple

from repro.net.codec import (
    ERR_INTERNAL,
    ERR_UNSUPPORTED,
    ERROR,
    REQUEST,
    RESPONSE,
    ErrorFrame,
    Frame,
    Message,
    encode_frame,
)

#: A causal-trace context attached to an outbound request:
#: ``(trace_id, parent_span_id)`` — see the codec's trace extension.
TraceContext = Tuple[str, Optional[str]]

__all__ = ["Handler", "TraceContext", "Transport", "answer_frame"]

#: An endpoint's inbound dispatch: (sender address, frame) -> response.
Handler = Callable[[str, Frame], Awaitable[Optional[Message]]]


async def answer_frame(
    handler: Optional[Handler], sender: str, frame: Frame
) -> Optional[bytes]:
    """Run ``handler`` on an inbound frame; the encoded answer, if any.

    The request-answering rule every transport shares: one-way frames
    get no answer; a ``REQUEST`` is answered with the handler's message
    (``RESPONSE``), or with an ``ERROR`` frame when no handler is bound,
    the handler raised, or it returned ``None``.
    """
    if handler is None:
        response = ErrorFrame(code=ERR_UNSUPPORTED, detail="no handler bound")
    else:
        try:
            response = await handler(sender, frame)
        except Exception as exc:  # a daemon bug must answer, not hang
            response = ErrorFrame(code=ERR_INTERNAL, detail=str(exc))
    if frame.flags != REQUEST:
        return None
    if response is None:
        response = ErrorFrame(
            code=ERR_UNSUPPORTED,
            detail=f"no response for {type(frame.message).__name__}",
        )
    flags = ERROR if isinstance(response, ErrorFrame) else RESPONSE
    return encode_frame(response, flags, frame.request_id)


class Transport(abc.ABC):
    """One endpoint on a message-moving substrate."""

    @property
    @abc.abstractmethod
    def local_address(self) -> str:
        """The address peers reach this endpoint at."""

    @abc.abstractmethod
    def bind(self, handler: Handler) -> None:
        """Attach the inbound handler (before :meth:`start`)."""

    @abc.abstractmethod
    async def start(self) -> None:
        """Begin accepting inbound messages."""

    @abc.abstractmethod
    async def close(self) -> None:
        """Stop the endpoint and release its resources."""

    @abc.abstractmethod
    async def send(self, addr: str, message: Message) -> None:
        """Fire-and-forget delivery (silently lost on a dead peer)."""

    @abc.abstractmethod
    async def request(
        self,
        addr: str,
        message: Message,
        timeout_ms: float,
        trace: Optional[TraceContext] = None,
    ) -> Message:
        """Round-trip exchange; the response message, or raises.

        :class:`repro.errors.TransportTimeout` when no response lands
        within ``timeout_ms``; :class:`repro.errors.RemoteError` when the
        peer answered with an error frame.  ``trace`` optionally rides
        the request frame as the codec's trace extension, so the peer's
        handler spans join the caller's trace.
        """

    @abc.abstractmethod
    def now_ms(self) -> float:
        """This transport's clock (virtual or monotonic), in ms."""

    @abc.abstractmethod
    async def sleep_ms(self, ms: float) -> None:
        """Sleep on this transport's clock."""

    @abc.abstractmethod
    async def gather(self, *coros):
        """Run coroutines concurrently under this transport's scheduler.

        Service code must use this instead of ``asyncio.gather`` so the
        loopback's virtual clock can account for every waiter; on the
        socket transport it is plain ``asyncio.gather``.
        """
