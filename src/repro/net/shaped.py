"""Latency shaping for real sockets.

:class:`ShapedTransport` injects per-destination latency so real
localhost sockets exhibit the scenario's RTTs: without it every
localhost ping measures ~0 ms, the direct path always beats the latency
threshold, and the relay machinery never runs.  (The loopback transport
does not need it — its hub models latency natively under virtual time.)
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.net.codec import Message
from repro.net.transport import Handler, TraceContext, Transport

__all__ = ["ShapedTransport"]


class ShapedTransport(Transport):
    """Per-destination latency injection for real sockets.

    Each *request* is held back by ``rtt_ms_of(destination)`` before
    entering the inner transport, so the round trip observed by the
    caller matches the scenario's ground truth.  One-way sends, and
    destinations the function answers ``None`` for, pass through
    unshaped (directory and control traffic stays fast; only measured
    paths need realism).
    """

    def __init__(
        self, inner: Transport, rtt_ms_of: Callable[[str], Optional[float]]
    ) -> None:
        self._inner = inner
        self._rtt_ms_of = rtt_ms_of

    @property
    def local_address(self) -> str:
        return self._inner.local_address

    def bind(self, handler: Handler) -> None:
        self._inner.bind(handler)

    async def start(self) -> None:
        await self._inner.start()

    async def close(self) -> None:
        await self._inner.close()

    def now_ms(self) -> float:
        return self._inner.now_ms()

    async def sleep_ms(self, ms: float) -> None:
        await self._inner.sleep_ms(ms)

    async def gather(self, *coros):
        return await self._inner.gather(*coros)

    async def send(self, addr: str, message: Message) -> None:
        await self._inner.send(addr, message)

    async def request(
        self,
        addr: str,
        message: Message,
        timeout_ms: float,
        trace: Optional[TraceContext] = None,
    ) -> Message:
        rtt = self._rtt_ms_of(addr)
        if rtt is not None and rtt > 0.0:
            await self._inner.sleep_ms(rtt)
        return await self._inner.request(addr, message, timeout_ms, trace=trace)
