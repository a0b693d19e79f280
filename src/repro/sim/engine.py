"""Event queue, simulated clock and coroutine scheduler.

Events execute in (time, insertion order) — ties break FIFO so runs are
deterministic.  Time is in simulated milliseconds throughout the library
(latencies are natively in ms; seconds-scale results convert at the
edges).

The same clock also runs coroutines, so a protocol flow can be written
top to bottom (``await`` an exchange, ``await sim.sleep(...)``) instead
of as a chain of callbacks.  A coroutine suspends only by awaiting a
:class:`Wait`; resolving the wait queues the coroutine on a FIFO ready
queue.  The ordering contract:

- one timed event fires at a time; everything it makes runnable
  (spawned coroutines, resolved waiters) runs FIFO to quiescence before
  the next event is popped, even one at the same timestamp;
- a coroutine awaiting an already-resolved wait does not yield;
- :meth:`Simulator.start`, called as an event action's last act, is
  :meth:`Simulator.spawn` without the trip through the ready queue;
- an exception escaping a spawned coroutine propagates out of
  :meth:`Simulator.step` / :meth:`Simulator.run`, exactly like one
  escaping an event action — nothing is held in a task object.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Any, Callable, Coroutine, Deque, List, NamedTuple, Optional

from repro.errors import ReproError

_INF = float("inf")
_new_tuple = tuple.__new__


class SimulationError(ReproError):
    """The simulator was driven incorrectly (e.g. scheduling in the past)."""


class Event(NamedTuple):
    """A scheduled callback.  The heap orders events as tuples: by time,
    then by ``seq`` — unique, so ``action`` is never compared."""

    time_ms: float
    seq: int
    action: Callable[[], Any]


class Wait:
    """A one-shot awaitable owned by a :class:`Simulator`.

    One coroutine may ``await`` it; :meth:`resolve` (or :meth:`fail`)
    makes that coroutine runnable and the ``await`` return the value (or
    raise the error).  The first resolution wins — later ones are
    ignored, so a response racing its own timeout needs no guard.
    """

    __slots__ = ("_sim", "_waiter", "_done", "_value", "_error")

    def __init__(self, sim: "Simulator") -> None:
        self._sim = sim
        self._waiter: Optional[Coroutine] = None
        self._done = False
        self._value: Any = None
        self._error: Optional[BaseException] = None

    @property
    def done(self) -> bool:
        """Whether the wait has been resolved (with a value or an error)."""
        return self._done

    def resolve(self, value: Any = None) -> None:
        """Complete the wait with ``value``; queue the waiter, if any."""
        if self._done:
            return
        self._done = True
        self._value = value
        if self._waiter is not None:
            self._sim._ready.append(self._waiter)
            self._waiter = None

    def fail(self, error: BaseException) -> None:
        """Complete the wait with an exception raised at the ``await``."""
        if not self._done:
            self._error = error
            self.resolve()

    def __await__(self):
        if not self._done:
            yield self
        if self._error is not None:
            raise self._error
        return self._value


class Simulator:
    """A single-threaded discrete-event simulator and coroutine scheduler."""

    def __init__(self) -> None:
        self._now_ms = 0.0
        self._queue: List[Event] = []
        self._seq = itertools.count()
        self._ready: Deque[Coroutine] = deque()
        #: True only while an event action runs outside any coroutine —
        #: the one place :meth:`start` may run a coroutine in place.
        self._in_action = False

    @property
    def now_ms(self) -> float:
        """Current simulated time in milliseconds."""
        return self._now_ms

    def schedule(self, delay_ms: float, action: Callable[[], Any]) -> Event:
        """Schedule ``action`` to run ``delay_ms`` (finite, ≥ 0) from now."""
        if not 0.0 <= delay_ms < _INF:
            raise SimulationError(f"cannot schedule {delay_ms} ms from now (past or non-finite)")
        event = _new_tuple(Event, (self._now_ms + delay_ms, next(self._seq), action))
        heapq.heappush(self._queue, event)
        return event

    def schedule_at(self, time_ms: float, action: Callable[[], Any]) -> Event:
        """Schedule ``action`` at an absolute, finite simulated time."""
        if not self._now_ms <= time_ms < _INF:
            raise SimulationError(
                f"cannot schedule at {time_ms} (now {self._now_ms}): past or non-finite"
            )
        event = Event(time_ms, next(self._seq), action)
        heapq.heappush(self._queue, event)
        return event

    # -- coroutines ----------------------------------------------------------

    def wait(self) -> Wait:
        """A fresh unresolved :class:`Wait` on this simulator."""
        return Wait(self)

    def spawn(self, coro: Coroutine) -> None:
        """Make ``coro`` runnable; it first runs in spawn order, after
        whatever is already ready and before the next timed event."""
        self._ready.append(coro)

    def start(self, coro: Coroutine) -> None:
        """:meth:`spawn` ``coro``, running it to its first suspension
        right away when nothing would run before it anyway.

        That holds when an event action (not a coroutine) calls it with
        nothing ready: ``spawn`` would queue ``coro`` first and run it as
        soon as the action returns.  Call it as the action's last act —
        then the order of everything the simulator runs equals
        ``spawn``'s.  Anywhere else it queues ``coro`` exactly like
        ``spawn``.
        """
        if not self._in_action or self._ready:
            self._ready.append(coro)
            return
        self._in_action = False
        try:
            wait = coro.send(None)
        except StopIteration:
            return
        finally:
            self._in_action = True
        if not isinstance(wait, Wait) or wait._sim is not self or wait._waiter is not None:
            raise self._misuse(wait)
        wait._waiter = coro

    def sleep(self, delay_ms: float) -> Wait:
        """Awaitable that resolves ``delay_ms`` from now."""
        wait = Wait(self)
        self.schedule(delay_ms, wait.resolve)
        return wait

    def sleep_until(self, time_ms: float) -> Wait:
        """Awaitable that resolves at an absolute simulated time."""
        wait = Wait(self)
        self.schedule_at(time_ms, wait.resolve)
        return wait

    async def gather(self, *coros: Coroutine) -> list:
        """Run coroutines concurrently; their results in argument order.

        Every branch runs to completion; the first exception (by
        argument order) is re-raised afterwards.  With no coroutines it
        returns ``[]`` without yielding.
        """
        if not coros:
            return []
        results: list = [None] * len(coros)
        errors: list = [None] * len(coros)
        remaining = len(coros)
        done = Wait(self)

        async def branch(index: int, coro: Coroutine) -> None:
            nonlocal remaining
            try:
                results[index] = await coro
            except Exception as exc:  # re-raised below, in argument order
                errors[index] = exc
            finally:
                remaining -= 1
                if remaining == 0:
                    done.resolve()

        for index, coro in enumerate(coros):
            self.spawn(branch(index, coro))
        await done
        for exc in errors:
            if exc is not None:
                raise exc
        return results

    def _drain(self) -> None:
        """Run ready coroutines FIFO until every one is parked or done."""
        ready = self._ready
        while ready:
            coro = ready.popleft()
            try:
                wait = coro.send(None)
            except StopIteration:
                continue
            if not isinstance(wait, Wait) or wait._sim is not self or wait._waiter is not None:
                raise self._misuse(wait)
            wait._waiter = coro

    def _misuse(self, wait: Any) -> SimulationError:
        """Why a coroutine may not park on ``wait``."""
        if not isinstance(wait, Wait) or wait._sim is not self:
            return SimulationError(
                f"coroutine suspended on {wait!r}, not on a wait of this "
                "simulator (a bare asyncio.sleep cannot advance virtual time)"
            )
        return SimulationError("two coroutines awaiting one wait")

    # -- driving ---------------------------------------------------------------

    def step(self) -> bool:
        """Run the next event and everything it makes runnable; returns
        False when the event queue is empty."""
        return self.run(max_events=1) == 1

    def run(self, until_ms: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Drain the queue, optionally bounded by time and/or event count.

        Returns the number of events executed by this call.  When
        ``until_ms`` is given, the clock is advanced to exactly
        ``until_ms`` at the end even if the queue drained earlier.
        Coroutines still suspended when a bounded run stops stay
        resumable by a later call.
        """
        queue, ready, pop = self._queue, self._ready, heapq.heappop
        horizon = _INF if until_ms is None else until_ms
        budget = _INF if max_events is None else max_events
        executed = 0
        if ready:
            self._drain()
        # One event, then everything it made runnable; no call per event.
        while queue and executed < budget and not queue[0][0] > horizon:
            self._now_ms, _, action = pop(queue)
            self._in_action = True
            try:
                action()
            finally:
                self._in_action = False
            if ready:
                self._drain()
            executed += 1
        if until_ms is not None and self._now_ms < until_ms:
            self._now_ms = until_ms
        return executed
