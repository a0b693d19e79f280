"""Real asyncio TCP transport for the ASAP service daemons.

Frames are written verbatim as produced by :func:`repro.net.codec.
encode_frame` and reassembled from the byte stream with
:class:`repro.net.codec.FrameDecoder`, so the bytes on a localhost
socket are exactly the bytes the loopback transport moves in-process.

Endpoint addresses are ``"host:port"`` strings.  Outbound connections
are pooled per destination.  Every connection, accepted or dialled, is
one :class:`_Conn` protocol whose ``data_received`` decodes frames: a
response completes the request with its ``request_id`` there, and any
other frame is answered inline — only a handler that suspends becomes a
task.  A peer that is down surfaces as
:class:`repro.errors.TransportTimeout` (at once on refusal or a lost
connection, after ``timeout_ms`` on silence), mirroring the loopback's
unreachable semantics so retry policies behave identically on both
substrates.  :meth:`TcpTransport.close` closes every connection.

Each pooled connection caps its in-flight requests (``max_in_flight``)
with a bounded wait queue behind it (``max_waiters``): a full queue
rejects immediately as a :class:`TransportTimeout` (counted in
``wire.backpressure_rejected``), so a slow peer degrades into timeouts
the retry policies already handle instead of unbounded buffering.
"""

from __future__ import annotations

import asyncio
import itertools
import time
import types
from collections import deque
from typing import Deque, Dict, Optional

from repro import obs
from repro.errors import RemoteError, TransportTimeout, WireError
from repro.net.codec import (
    ERROR,
    ONEWAY,
    REQUEST,
    RESPONSE,
    ErrorFrame,
    Frame,
    FrameDecoder,
    Message,
    encode_frame,
)
from repro.net.transport import Handler, TraceContext, Transport, answer_frame

__all__ = ["TcpTransport"]

_ANSWERS = frozenset((RESPONSE, ERROR))


def _expire(future: asyncio.Future, what: str, addr: str, timeout_ms: float) -> None:
    if not future.done():
        future.set_exception(TransportTimeout(f"{what} {addr} within {timeout_ms} ms"))


@types.coroutine
def _resume(coro, yielded):
    """Carry on a coroutine that suspended outside any task: hand what
    it yielded to the running task and feed each wake-up back in."""
    while True:
        try:
            value = yield yielded
            step = coro.send
        except BaseException as exc:  # cancellation, close, a failed wait
            step, value = coro.throw, exc
        try:
            yielded = step(value)
        except StopIteration as stop:
            return stop.value


async def _finish(coro, yielded):
    """``_resume`` as a native coroutine, which ``create_task`` needs."""
    return await _resume(coro, yielded)


class _Conn(asyncio.Protocol):
    """One TCP connection, accepted or dialled: frames in, writes out."""

    def __init__(self, owner: "TcpTransport") -> None:
        self.owner = owner
        self.decoder = FrameDecoder()
        self.sock: Optional[asyncio.Transport] = None
        self.sender = "?"
        self.closed = False
        # Set while paused; resolved on resume, and on loss (whose
        # requests ``fail`` has already answered).
        self.drained: Optional[asyncio.Future] = None
        self.pending: Dict[int, asyncio.Future] = {}
        self.max_in_flight = owner._max_in_flight
        self.max_waiters = owner._max_waiters
        self.in_flight = 0
        self.waiters: Deque[asyncio.Future] = deque()

    # -- asyncio.Protocol ---------------------------------------------------

    def connection_made(self, sock: asyncio.Transport) -> None:
        self.sock = sock
        peername = sock.get_extra_info("peername")
        self.sender = f"{peername[0]}:{peername[1]}" if peername else "?"
        self.owner._open.add(self)

    def data_received(self, data: bytes) -> None:
        try:
            frames = self.decoder.feed(data)
        except WireError:  # a desynchronized stream is dropped, alone
            self.close("corrupt frame")
            return
        for frame in frames:
            if frame.flags in _ANSWERS:
                future = self.pending.get(frame.request_id)
                if future is not None and not future.done():
                    future.set_result(frame)
            else:
                self.owner._dispatch(self, frame)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.closed = True
        self.owner._open.discard(self)
        self.fail("connection lost")
        if self.drained is not None and not self.drained.done():
            self.drained.set_result(None)

    def pause_writing(self) -> None:
        self.drained = asyncio.get_running_loop().create_future()

    def resume_writing(self) -> None:
        drained, self.drained = self.drained, None
        if not drained.done():
            drained.set_result(None)

    def write(self, data: bytes) -> None:
        if self.closed:
            raise TransportTimeout("connection lost")
        self.sock.write(data)

    def close(self, reason: str) -> None:
        self.closed = True
        self.sock.close()
        self.fail(reason)

    def fail(self, reason: str) -> None:
        """Fail the requests and slot waiters now, not at their timeouts."""
        for future in self.pending.values():
            if not future.done():
                future.set_exception(TransportTimeout(reason))
        self.pending.clear()
        while self.waiters:
            waiter = self.waiters.popleft()
            if not waiter.done():
                waiter.set_exception(TransportTimeout(reason))

    # -- backpressure -------------------------------------------------------

    def try_acquire(self) -> bool:
        """Claim an in-flight slot if one is free."""
        if self.in_flight < self.max_in_flight:
            self.in_flight += 1
            return True
        return False

    def enqueue_waiter(self) -> Optional[asyncio.Future]:
        """Queue for the next freed slot; None when the queue is full."""
        if len(self.waiters) >= self.max_waiters:
            return None
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self.waiters.append(future)
        return future

    def release(self) -> None:
        """Free a slot — handed straight to the next live waiter (the
        in-flight count never dips, so the cap is exact under load)."""
        while self.waiters:
            waiter = self.waiters.popleft()
            if not waiter.done():
                waiter.set_result(None)
                return
        self.in_flight = max(0, self.in_flight - 1)


class TcpTransport(Transport):
    """A TCP endpoint: one listening socket plus pooled client sockets."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        max_in_flight: int = 64,
        max_waiters: int = 128,
    ) -> None:
        self._host = host
        self._port = port
        self._max_in_flight = max_in_flight
        self._max_waiters = max_waiters
        self._handler: Optional[Handler] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._conns: Dict[str, _Conn] = {}  # the outbound pool
        self._open: set = set()  # every live connection, both directions
        self._connect_locks: Dict[str, asyncio.Lock] = {}
        self._request_seq = itertools.count(1)
        self._inbound_tasks: set = set()  # answers whose handler suspended

    @property
    def local_address(self) -> str:
        return f"{self._host}:{self._port}"

    def bind(self, handler: Handler) -> None:
        self._handler = handler

    async def start(self) -> None:
        if self._server is not None:
            return
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _Conn(self), self._host, self._port
        )
        # Port 0 asks the kernel for a free port; advertise what we got.
        self._port = self._server.sockets[0].getsockname()[1]

    async def close(self) -> None:
        server, self._server = self._server, None
        if server is not None:
            server.close()
        for conn in list(self._open):
            conn.close("transport closed")
        self._conns.clear()
        self._connect_locks.clear()
        tasks = self._inbound_tasks - {asyncio.current_task()}
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.wait(tasks)
        if server is not None:
            await server.wait_closed()

    def now_ms(self) -> float:
        return time.monotonic() * 1000.0

    async def sleep_ms(self, ms: float) -> None:
        await asyncio.sleep(ms / 1000.0)

    async def gather(self, *coros):
        return await asyncio.gather(*coros)

    # -- outbound ----------------------------------------------------------

    async def _get_conn(self, addr: str) -> _Conn:
        conn = self._conns.get(addr)
        if conn is not None and not conn.closed:
            return conn
        # One connect per address at a time: lanes racing here on an empty
        # pool would each open a connection, orphaning all but the last
        # stored; the losers wait and find the winner's connection.
        async with self._connect_locks.setdefault(addr, asyncio.Lock()):
            conn = self._conns.get(addr)
            if conn is not None and not conn.closed:
                return conn
            host, _, port = addr.rpartition(":")
            try:
                _, conn = await asyncio.get_running_loop().create_connection(
                    lambda: _Conn(self), host, int(port)
                )
            except (OSError, ValueError) as exc:
                raise TransportTimeout(f"cannot connect to {addr}: {exc}") from exc
            self._conns[addr] = conn
            return conn

    async def send(self, addr: str, message: Message) -> None:
        obs.counter("wire.sent").inc()
        try:
            conn = await self._get_conn(addr)
            conn.write(encode_frame(message, ONEWAY, 0))
            if conn.drained is not None:
                await asyncio.shield(conn.drained)
        except (TransportTimeout, OSError):
            obs.counter("wire.dropped").inc()

    async def _acquire_slot(self, conn: _Conn, addr: str, timeout_ms: float) -> None:
        """Claim an in-flight slot, waiting (bounded) under backpressure."""
        if conn.try_acquire():
            return
        waiter = conn.enqueue_waiter()
        if waiter is None:
            rejected = obs.counter("wire.backpressure_rejected")
            rejected.inc()
            obs.counter("wire.timeouts").inc()
            obs.timeline().sample(
                "net.backpressure_rejected", self.now_ms(), rejected.value, wall=True
            )
            raise TransportTimeout(
                f"{addr} backpressure: {conn.in_flight} in flight, "
                f"{conn.max_waiters} waiting"
            )
        expiry = asyncio.get_running_loop().call_later(
            timeout_ms / 1000.0, _expire, waiter, "no free slot to", addr, timeout_ms
        )
        try:
            await waiter
        except TransportTimeout:
            obs.counter("wire.timeouts").inc()
            raise
        except BaseException:
            if waiter.done() and not waiter.cancelled() and waiter.exception() is None:
                conn.release()  # the slot arrived as we were cancelled
            raise
        finally:
            expiry.cancel()

    async def request(
        self,
        addr: str,
        message: Message,
        timeout_ms: float,
        trace: Optional[TraceContext] = None,
    ) -> Message:
        request_id = next(self._request_seq)
        data = encode_frame(message, REQUEST, request_id, trace=trace)
        obs.counter("wire.sent").inc()
        conn = await self._get_conn(addr)
        await self._acquire_slot(conn, addr, timeout_ms)
        timeline = obs.timeline()
        timeline.sample("net.pool_in_flight", self.now_ms(), conn.in_flight, wall=True)
        if conn.waiters:
            timeline.sample("net.pool_waiters", self.now_ms(), len(conn.waiters), wall=True)
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        expiry = loop.call_later(
            timeout_ms / 1000.0, _expire, future, "no response from", addr, timeout_ms
        )
        try:
            conn.write(data)
            conn.pending[request_id] = future
            if conn.drained is not None:
                await asyncio.shield(conn.drained)
            frame: Frame = await future
        except TransportTimeout:
            obs.counter("wire.timeouts").inc()
            raise
        finally:
            expiry.cancel()
            conn.pending.pop(request_id, None)
            conn.release()
        if frame.flags == ERROR:
            assert isinstance(frame.message, ErrorFrame)
            raise RemoteError(frame.message.code, frame.message.detail)
        return frame.message

    # -- inbound -----------------------------------------------------------

    def _dispatch(self, conn: _Conn, frame: Frame) -> None:
        """Answer an inbound frame inline, outside any task; a handler
        that suspends carries on as one (eager tasks, on any asyncio)."""
        obs.counter("wire.delivered").inc()
        coro = self._answer(conn, frame)
        try:
            yielded = coro.send(None)
        except StopIteration:
            return
        task = asyncio.get_running_loop().create_task(_finish(coro, yielded))
        self._inbound_tasks.add(task)
        task.add_done_callback(self._inbound_tasks.discard)

    async def _answer(self, conn: _Conn, frame: Frame) -> None:
        out = await answer_frame(self._handler, conn.sender, frame)
        if out is not None and not conn.closed:
            conn.sock.write(out)
            if conn.drained is not None:
                await asyncio.shield(conn.drained)
