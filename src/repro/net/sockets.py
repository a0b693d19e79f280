"""Real asyncio TCP transport for the ASAP service daemons.

Frames are written verbatim as produced by :func:`repro.net.codec.
encode_frame` and reassembled from the byte stream with
:class:`repro.net.codec.FrameDecoder`, so the bytes on a localhost
socket are exactly the bytes the loopback transport moves in-process.

Endpoint addresses are ``"host:port"`` strings.  Outbound connections
are pooled per destination and reused for every subsequent send or
request; responses are correlated back to their requests by the frame
header's ``request_id``.  A peer that is down surfaces as
:class:`repro.errors.TransportTimeout` (fast on connection refusal,
after ``timeout_ms`` on silence), mirroring the loopback's unreachable
semantics so retry policies behave identically on both substrates.

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
from collections import deque
from typing import Deque, Dict, Optional

from repro import obs
from repro.errors import FrameError, RemoteError, TransportTimeout
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

_READ_CHUNK = 65536


class _Conn:
    """One pooled outbound connection and its response-pump task."""

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        max_in_flight: int = 64,
        max_waiters: int = 128,
    ) -> None:
        self.reader = reader
        self.writer = writer
        self.decoder = FrameDecoder()
        self.task: Optional[asyncio.Task] = None
        self.max_in_flight = max_in_flight
        self.max_waiters = max_waiters
        self.in_flight = 0
        self.waiters: Deque[asyncio.Future] = deque()

    def alive(self) -> bool:
        return not self.writer.is_closing()

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

    def fail_waiters(self) -> None:
        """Connection died: every queued waiter times out now."""
        while self.waiters:
            waiter = self.waiters.popleft()
            if not waiter.done():
                waiter.set_exception(TransportTimeout("connection closed"))


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
        self._conns: Dict[str, _Conn] = {}
        self._connect_locks: Dict[str, asyncio.Lock] = {}
        self._pending: Dict[int, asyncio.Future] = {}
        self._request_seq = itertools.count(1)
        self._inbound_tasks: set = set()

    @property
    def local_address(self) -> str:
        return f"{self._host}:{self._port}"

    def bind(self, handler: Handler) -> None:
        self._handler = handler

    async def start(self) -> None:
        if self._server is not None:
            return
        self._server = await asyncio.start_server(
            self._on_client, self._host, self._port
        )
        # Port 0 asks the kernel for a free port; advertise what we got.
        self._port = self._server.sockets[0].getsockname()[1]

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for conn in self._conns.values():
            if conn.task is not None:
                conn.task.cancel()
            conn.fail_waiters()
            conn.writer.close()
        self._conns.clear()
        self._connect_locks.clear()
        for task in list(self._inbound_tasks):
            task.cancel()
        self._inbound_tasks.clear()
        for future in self._pending.values():
            if not future.done():
                future.set_exception(TransportTimeout("transport closed"))
        self._pending.clear()

    def now_ms(self) -> float:
        return time.monotonic() * 1000.0

    async def sleep_ms(self, ms: float) -> None:
        await asyncio.sleep(ms / 1000.0)

    async def gather(self, *coros):
        return await asyncio.gather(*coros)

    # -- outbound ----------------------------------------------------------

    async def _get_conn(self, addr: str) -> _Conn:
        conn = self._conns.get(addr)
        if conn is not None and conn.alive():
            return conn
        # One connect per address at a time.  Lanes racing here on an
        # empty pool would each open a connection and all but the last
        # stored would be orphaned — a socket and a pump task close()
        # never sees; the losers wait and find the winner's connection.
        async with self._connect_locks.setdefault(addr, asyncio.Lock()):
            conn = self._conns.get(addr)
            if conn is not None and conn.alive():
                return conn
            host, _, port = addr.rpartition(":")
            try:
                reader, writer = await asyncio.open_connection(host, int(port))
            except (OSError, ValueError) as exc:
                raise TransportTimeout(f"cannot connect to {addr}: {exc}") from exc
            conn = _Conn(reader, writer, self._max_in_flight, self._max_waiters)
            conn.task = asyncio.get_running_loop().create_task(self._pump(conn))
            self._conns[addr] = conn
            return conn

    async def _pump(self, conn: _Conn) -> None:
        """Read frames off a pooled connection until it dies."""
        try:
            while True:
                data = await conn.reader.read(_READ_CHUNK)
                if not data:
                    break
                for frame in conn.decoder.feed(data):
                    if frame.flags in (RESPONSE, ERROR):
                        self._complete(frame)
                    elif self._handler is not None:
                        self._spawn_inbound(conn.writer, "peer", frame)
        except (asyncio.CancelledError, FrameError, OSError):
            pass
        finally:
            conn.fail_waiters()
            conn.writer.close()

    def _complete(self, frame: Frame) -> None:
        future = self._pending.get(frame.request_id)
        if future is not None and not future.done():
            future.set_result(frame)

    async def send(self, addr: str, message: Message) -> None:
        obs.counter("wire.sent").inc()
        try:
            conn = await self._get_conn(addr)
            conn.writer.write(encode_frame(message, ONEWAY, 0))
            await conn.writer.drain()
        except (TransportTimeout, OSError):
            obs.counter("wire.dropped").inc()

    async def _acquire_slot(self, conn: _Conn, addr: str, timeout_ms: float) -> None:
        """Claim an in-flight slot, waiting (bounded) under backpressure."""
        if conn.try_acquire():
            return
        waiter = conn.enqueue_waiter()
        if waiter is None:
            obs.counter("wire.backpressure_rejected").inc()
            obs.counter("wire.timeouts").inc()
            obs.timeline().sample(
                "net.backpressure_rejected",
                self.now_ms(),
                obs.counter("wire.backpressure_rejected").value,
                wall=True,
            )
            raise TransportTimeout(
                f"{addr} backpressure: {conn.in_flight} in flight, "
                f"{conn.max_waiters} waiting"
            )
        try:
            await asyncio.wait_for(asyncio.shield(waiter), timeout_ms / 1000.0)
        except asyncio.TimeoutError:
            if waiter.done() and not waiter.cancelled() and waiter.exception() is None:
                conn.release()  # the slot arrived exactly as we gave up
            else:
                waiter.cancel()
            obs.counter("wire.timeouts").inc()
            raise TransportTimeout(
                f"no free slot to {addr} within {timeout_ms} ms"
            ) from None

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
        obs.timeline().sample(
            "net.pool_in_flight", self.now_ms(), conn.in_flight, wall=True
        )
        if conn.waiters:
            obs.timeline().sample(
                "net.pool_waiters", self.now_ms(), len(conn.waiters), wall=True
            )
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        try:
            conn.writer.write(data)
            await conn.writer.drain()
            try:
                frame: Frame = await asyncio.wait_for(future, timeout_ms / 1000.0)
            except asyncio.TimeoutError:
                obs.counter("wire.timeouts").inc()
                raise TransportTimeout(
                    f"no response from {addr} within {timeout_ms} ms"
                ) from None
        finally:
            self._pending.pop(request_id, None)
            conn.release()
        if frame.flags == ERROR:
            assert isinstance(frame.message, ErrorFrame)
            raise RemoteError(frame.message.code, frame.message.detail)
        return frame.message

    # -- inbound -----------------------------------------------------------

    async def _on_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        peername = writer.get_extra_info("peername")
        sender = f"{peername[0]}:{peername[1]}" if peername else "?"
        decoder = FrameDecoder()
        try:
            while True:
                data = await reader.read(_READ_CHUNK)
                if not data:
                    break
                for frame in decoder.feed(data):
                    if frame.flags in (RESPONSE, ERROR):
                        self._complete(frame)
                    else:
                        self._spawn_inbound(writer, sender, frame)
        except (asyncio.CancelledError, FrameError, OSError):
            pass
        finally:
            writer.close()

    def _spawn_inbound(
        self, writer: asyncio.StreamWriter, sender: str, frame: Frame
    ) -> None:
        task = asyncio.get_running_loop().create_task(
            self._dispatch(writer, sender, frame)
        )
        self._inbound_tasks.add(task)
        task.add_done_callback(self._inbound_tasks.discard)

    async def _dispatch(
        self, writer: asyncio.StreamWriter, sender: str, frame: Frame
    ) -> None:
        obs.counter("wire.delivered").inc()
        out = await answer_frame(self._handler, sender, frame)
        if out is None:
            return
        try:
            writer.write(out)
            await writer.drain()
        except OSError:
            pass  # requester is gone; its timeout handles the rest
