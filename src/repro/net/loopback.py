"""In-process loopback transport: the wire stack under a virtual clock.

The loopback carries exactly the same bytes as the socket transport —
every delivery is ``encode_frame`` → bytes → ``decode_frame``; a relay
forwarding the untraced one-way message it was just handed re-sends
the bytes it arrived as, which the canonical codec would write again —
but moves them through a deterministic discrete-event scheduler instead
of an operating-system socket:

- **virtual time.**  :class:`LoopbackHub` owns a
  :class:`repro.sim.engine.Simulator` — the same clock and scheduler the
  simulated runtime runs on; deliveries take the configured one-way
  latency, timeouts fire at exact virtual instants, and ``sleep_ms``
  parks on the virtual clock.  A 20-second call completes in
  milliseconds of wall time, and no event loop is involved.
- **determinism.**  Events execute in (time, insertion order); parked
  coroutines resume through the simulator's FIFO ready queue; no wall
  clock, PID or unseeded randomness is ever consulted.  Two runs of the
  same program therefore interleave identically — the service-layer CI
  diffs ``traces.jsonl`` bytes across same-seed demo runs to hold this.

The simulator advances virtual time only when every coroutine is
*parked* (awaiting one of its waits) — the classic conservative
discrete-event rule.  Service code running over the loopback must
therefore only suspend through transport primitives (``request``,
``sleep_ms``, ``gather``); a bare ``asyncio.sleep`` is a
:class:`~repro.sim.engine.SimulationError`, exactly like calling
``time.sleep`` inside a simulator event would stall its clock.
"""

from __future__ import annotations

import itertools
from functools import partial
from typing import Awaitable, Callable, Dict, Optional

from repro import obs
from repro.errors import RemoteError, ServiceError, TransportTimeout
from repro.net.codec import (
    ERROR,
    ONEWAY,
    REQUEST,
    ErrorFrame,
    Frame,
    Message,
    decode_frame,
    encode_frame,
)
from repro.net.transport import Handler, TraceContext, Transport, answer_frame
from repro.sim.engine import Simulator, Wait

__all__ = ["LoopbackHub", "LoopbackTransport"]

#: One-way delay used when the hub has no latency function configured.
DEFAULT_RTT_MS = 2.0


class LoopbackHub:
    """Shared virtual wire all :class:`LoopbackTransport` endpoints ride.

    ``latency_ms_fn(src_addr, dst_addr)`` supplies the round-trip time
    between two endpoint addresses (``None`` = unreachable, the message
    drops); without one every pair is :data:`DEFAULT_RTT_MS` apart.
    """

    def __init__(
        self,
        latency_ms_fn: Optional[Callable[[str, str], Optional[float]]] = None,
    ) -> None:
        self._latency_ms_fn = latency_ms_fn
        self._endpoints: Dict[str, "LoopbackTransport"] = {}
        #: The virtual clock and coroutine scheduler everything rides.
        self.sim = Simulator()
        self.deliveries = 0
        self.drops = 0

    @property
    def now_ms(self) -> float:
        """Current virtual time in milliseconds."""
        return self.sim.now_ms

    def rtt_ms(self, src: str, dst: str) -> Optional[float]:
        """Round-trip time between two addresses (None = no route)."""
        if self._latency_ms_fn is None:
            return DEFAULT_RTT_MS
        return self._latency_ms_fn(src, dst)

    # -- endpoint registry --------------------------------------------------

    def register(self, transport: "LoopbackTransport") -> None:
        if transport.local_address in self._endpoints:
            raise ServiceError(
                f"loopback address {transport.local_address!r} already bound"
            )
        self._endpoints[transport.local_address] = transport

    def unregister(self, address: str) -> None:
        self._endpoints.pop(address, None)

    # -- scheduling ---------------------------------------------------------

    def _at(self, delay_ms: float, action: Callable[[], None]) -> None:
        self.sim.schedule(max(delay_ms, 0.0), action)

    async def sleep_ms(self, ms: float) -> None:
        """Park the calling coroutine for ``ms`` of virtual time."""
        await self.sim.sleep(max(ms, 0.0))

    async def gather(self, *coros: Awaitable) -> list:
        """Run coroutines concurrently on the virtual clock.

        All branches run to completion; the first exception (by argument
        order) is re-raised afterwards.
        """
        return await self.sim.gather(*coros)

    async def run(self, main: Awaitable):
        """Drive ``main`` (and everything it spawns) to completion.

        Never suspends its caller: the whole run executes inside this
        call, on the simulator.  Returns ``main``'s result (or raises its
        exception) after the event queue has drained — stale request
        timeouts included, so the final virtual time is a pure function
        of the schedule.
        """
        outcome = self.sim.wait()

        async def runner() -> None:
            try:
                outcome.resolve(await main)
            except Exception as exc:  # re-raised below, after the drain
                outcome.fail(exc)

        self.sim.spawn(runner())
        self.sim.run()
        if not outcome.done:
            raise ServiceError(
                "loopback deadlock: coroutines parked with no scheduled events"
            )
        return await outcome


class LoopbackTransport(Transport):
    """One endpoint on a :class:`LoopbackHub`."""

    def __init__(self, hub: LoopbackHub, address: str) -> None:
        self._hub = hub
        self._address = address
        self._handler: Optional[Handler] = None
        self._pending: Dict[int, Wait] = {}
        self._request_seq = itertools.count(1)
        self._started = False
        # The last untraced one-way message handed to the handler and the
        # bytes it arrived as: a relay forwarding that very object sends
        # those bytes again (the codec is canonical, so re-encoding it
        # would produce them anyway).
        self._inbound_message: Optional[Message] = None
        self._inbound_data = b""

    @property
    def local_address(self) -> str:
        return self._address

    def bind(self, handler: Handler) -> None:
        self._handler = handler

    async def start(self) -> None:
        if not self._started:
            self._hub.register(self)
            self._started = True

    async def close(self) -> None:
        if self._started:
            self._hub.unregister(self._address)
            self._started = False
        for wait in self._pending.values():
            wait.fail(TransportTimeout("transport closed"))
        self._pending.clear()

    def now_ms(self) -> float:
        return self._hub.sim.now_ms

    def sleep_ms(self, ms: float) -> Wait:
        return self._hub.sim.sleep(max(ms, 0.0))

    async def gather(self, *coros):
        return await self._hub.gather(*coros)

    # -- delivery ----------------------------------------------------------

    def _transmit(self, dst: str, data: bytes) -> None:
        """Put ``data`` on the wire: it arrives at ``dst`` half an RTT
        from now, or drops (no route, or nothing bound at ``dst``)."""
        hub = self._hub
        rtt = hub.rtt_ms(self._address, dst)
        dest = hub._endpoints.get(dst)
        if rtt is None or dest is None:
            hub.drops += 1
            obs.counter("wire.dropped").inc()
            return
        half = rtt / 2.0
        hub.sim.schedule(
            0.0 if half < 0.0 else half, partial(dest._arrive, self._address, data, rtt)
        )

    async def send(self, addr: str, message: Message) -> None:
        if message is self._inbound_message:
            data = self._inbound_data
        else:
            data = encode_frame(message, ONEWAY, 0)
        obs.counter("wire.sent").inc()
        self._transmit(addr, data)

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
        wait = self._pending[request_id] = self._hub.sim.wait()
        self._transmit(addr, data)
        # Undelivered, the timeout below is the only way the wait ends.
        self._hub._at(timeout_ms, partial(self._fire_timeout, request_id, timeout_ms))
        try:
            frame: Frame = await wait
        finally:
            self._pending.pop(request_id, None)
        if frame.flags == ERROR:
            assert isinstance(frame.message, ErrorFrame)
            raise RemoteError(frame.message.code, frame.message.detail)
        return frame.message

    def _fire_timeout(self, request_id: int, timeout_ms: float) -> None:
        wait = self._pending.get(request_id)
        if wait is not None and not wait.done:
            obs.counter("wire.timeouts").inc()
            # Deterministic: stamped with virtual time, so same-seed
            # loopback runs keep telemetry.jsonl byte-identical.
            obs.timeline().sample(
                "net.wire_timeouts",
                self._hub.now_ms,
                obs.counter("wire.timeouts").value,
            )
            wait.fail(
                TransportTimeout(
                    f"no response from request {request_id} within {timeout_ms} ms"
                )
            )

    def _complete(self, request_id: int, data: bytes) -> None:
        """A response frame arrived for one of our requests."""
        wait = self._pending.get(request_id)
        if wait is None or wait.done:
            return  # raced its own timeout; drop the late response
        wait.resolve(decode_frame(data))

    def _arrive(self, sender: str, data: bytes, rtt: float) -> None:
        """One delivery: decode, then answer a request or run a one-way
        frame's handler (whose error has nobody to go to)."""
        frame = decode_frame(data)
        self._hub.deliveries += 1
        obs.counter("wire.delivered").inc()
        # ``start`` is the last act of this event action, so each handler
        # runs exactly where ``spawn`` would have run it.
        if frame.flags == REQUEST:
            self._hub.sim.start(self._answer(sender, frame, rtt))
        elif self._handler is not None:
            if frame.flags == ONEWAY and frame.request_id == 0 and frame.trace_id is None:
                self._inbound_message = frame.message
                self._inbound_data = data
            self._hub.sim.start(_swallow(self._handler(sender, frame)))

    async def _answer(self, sender: str, frame: Frame, rtt: float) -> None:
        out = await answer_frame(self._handler, sender, frame)
        origin = self._hub._endpoints.get(sender)
        if origin is not None:
            self._hub._at(rtt / 2.0, partial(origin._complete, frame.request_id, out))


async def _swallow(handled: Awaitable) -> None:
    try:
        await handled
    except Exception:  # a one-way frame is never answered, not even with an error
        pass
