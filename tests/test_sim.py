"""Tests for the discrete-event engine, sim network, and trace records."""

import pytest

from repro.netaddr import IPv4Address
from repro.scenario import tiny_scenario
from repro.sim import PacketRecord, SessionTrace, SimNetwork, Simulator
from repro.sim.engine import SimulationError


class TestSimulator:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(10.0, lambda: order.append("b"))
        sim.schedule(5.0, lambda: order.append("a"))
        sim.schedule(20.0, lambda: order.append("c"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_ties_fifo(self):
        sim = Simulator()
        order = []
        for tag in ("x", "y", "z"):
            sim.schedule(1.0, lambda t=tag: order.append(t))
        sim.run()
        assert order == ["x", "y", "z"]

    def test_clock_advances(self):
        sim = Simulator()
        seen = []
        sim.schedule(3.0, lambda: seen.append(sim.now_ms))
        sim.run()
        assert seen == [3.0]
        assert sim.now_ms == 3.0

    def test_nested_scheduling(self):
        sim = Simulator()
        hits = []

        def outer():
            hits.append(sim.now_ms)
            sim.schedule(5.0, lambda: hits.append(sim.now_ms))

        sim.schedule(1.0, outer)
        sim.run()
        assert hits == [1.0, 6.0]

    def test_run_until_bounds_time(self):
        sim = Simulator()
        hits = []
        sim.schedule(5.0, lambda: hits.append(1))
        sim.schedule(50.0, lambda: hits.append(2))
        sim.run(until_ms=10.0)
        assert hits == [1]
        assert sim.now_ms == 10.0
        sim.run()
        assert hits == [1, 2]

    def test_run_max_events(self):
        sim = Simulator()
        for _ in range(5):
            sim.schedule(1.0, lambda: None)
        executed = sim.run(max_events=3)
        assert executed == 3
        assert len(sim._queue) == 2

    def test_cannot_schedule_into_past(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)

    @pytest.mark.parametrize("time_ms", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_times_are_rejected(self, time_ms):
        sim = Simulator()
        for schedule in (sim.schedule, sim.schedule_at):
            with pytest.raises(SimulationError):
                schedule(time_ms, lambda: None)
        for sleep in (sim.sleep, sim.sleep_until):
            with pytest.raises(SimulationError):
                sleep(time_ms)
        assert not sim._queue and sim.now_ms == 0.0

    def test_step_returns_false_on_empty(self):
        assert not Simulator().step()

    def test_processed_events_counter(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.run() == 2
        assert sim.run() == 0


class TestCoroutines:
    """The ordering contract the loopback hub and the runtime port rely on."""

    def test_spawn_order_is_first_run_order(self):
        sim = Simulator()
        order = []

        async def flow(tag):
            order.append((tag, "start"))
            await sim.sleep(1.0)
            order.append((tag, "end"))

        for tag in "abc":
            sim.spawn(flow(tag))
        assert order == []  # nothing runs until the simulator is driven
        sim.run()
        assert order == [(t, "start") for t in "abc"] + [(t, "end") for t in "abc"]

    def test_resolved_waiter_runs_before_the_next_same_time_event(self):
        sim = Simulator()
        order = []
        wait = sim.wait()

        async def waiter():
            order.append(("got", await wait))

        sim.spawn(waiter())
        sim.schedule(5.0, lambda: (order.append("resolve"), wait.resolve(7)))
        sim.schedule(5.0, lambda: order.append("same-time event"))
        sim.run()
        assert order == ["resolve", ("got", 7), "same-time event"]

    def test_awaiting_a_resolved_wait_does_not_yield(self):
        sim = Simulator()
        order = []
        done = sim.wait()
        done.resolve("early")
        done.resolve("late")  # the first resolution wins

        async def first():
            order.append(await done)
            order.append("first continues")

        async def second():
            order.append("second")

        sim.spawn(first())
        sim.spawn(second())
        sim.run()
        assert order == ["early", "first continues", "second"]

    def test_gather_results_in_argument_order(self):
        sim = Simulator()

        async def after(ms, value):
            await sim.sleep(ms)
            return value

        async def main(out):
            out.append(await sim.gather(after(9.0, "slow"), after(1.0, "fast")))
            out.append(sim.now_ms)

        out = []
        sim.spawn(main(out))
        sim.run()
        assert out == [["slow", "fast"], 9.0]

    def test_gather_finishes_every_branch_before_raising_the_first_error(self):
        sim = Simulator()
        finished = []

        async def branch(ms, error=None):
            await sim.sleep(ms)
            finished.append(ms)
            if error is not None:
                raise error

        async def main(out):
            try:
                await sim.gather(
                    branch(3.0, ValueError("by argument order")),
                    branch(1.0, KeyError("first in time")),
                    branch(8.0),
                )
            except Exception as exc:
                out.append((type(exc), sim.now_ms))

        out = []
        sim.spawn(main(out))
        sim.run()
        assert finished == [1.0, 3.0, 8.0]
        assert out == [(ValueError, 8.0)]

    def test_gather_of_nothing_returns_without_yielding(self):
        sim = Simulator()
        order = []

        async def main():
            order.append(await sim.gather())
            order.append("main continues")

        sim.spawn(main())
        sim.spawn(self._note(order, "other"))
        sim.run()
        assert order == [[], "main continues", "other"]

    @staticmethod
    async def _note(order, tag):
        order.append(tag)

    def test_escaping_exception_is_raised_by_run(self):
        sim = Simulator()

        async def broken():
            await sim.sleep(2.0)
            raise RuntimeError("flow bug")

        sim.spawn(broken())
        with pytest.raises(RuntimeError, match="flow bug"):
            sim.run()
        assert sim.now_ms == 2.0

    def test_failed_wait_raises_at_the_await(self):
        sim = Simulator()
        wait = sim.wait()
        seen = []

        async def waiter():
            try:
                await wait
            except KeyError as exc:
                seen.append((exc.args, sim.now_ms))

        sim.spawn(waiter())
        sim.schedule(4.0, lambda: wait.fail(KeyError("lost")))
        sim.run()
        assert seen == [(("lost",), 4.0)]

    def test_bounded_run_leaves_coroutines_resumable(self):
        sim = Simulator()
        seen = []

        async def flow():
            await sim.sleep(5.0)
            seen.append(sim.now_ms)
            await sim.sleep_until(50.0)
            seen.append(sim.now_ms)

        sim.spawn(flow())
        sim.run(until_ms=10.0)
        assert seen == [5.0] and sim.now_ms == 10.0
        sim.run()
        assert seen == [5.0, 50.0]

    def test_foreign_awaitable_is_an_error_not_a_stall(self):
        import asyncio

        sim = Simulator()

        async def flow():
            await asyncio.sleep(0)  # a bare yield: no Wait to park on

        sim.spawn(flow())
        with pytest.raises(SimulationError, match="asyncio.sleep"):
            sim.run()

    def test_event_only_simulation_keeps_time_seq_order(self):
        """No coroutine in play: events fire in (time, insertion) order
        and the counters read as they always did."""
        sim = Simulator()
        fired = []
        events = [
            sim.schedule(delay, lambda i=i: fired.append((sim.now_ms, i)))
            for i, delay in enumerate([4.0, 1.0, 4.0, 0.0, 1.0])
        ]
        events.append(sim.schedule_at(4.0, lambda: fired.append((sim.now_ms, 5))))
        assert [e.seq for e in events] == list(range(6))
        assert sim.run() == 6
        assert fired == [(0.0, 3), (1.0, 1), (1.0, 4), (4.0, 0), (4.0, 2), (4.0, 5)]
        assert not sim._queue


class TestSimNetwork:
    @pytest.fixture(scope="class")
    def scenario(self):
        return tiny_scenario(seed=4)

    def test_delivery_after_one_way_delay(self, scenario):
        sim = Simulator()
        net = SimNetwork(sim, scenario.latency)
        a, b = scenario.population.hosts[0], scenario.population.hosts[1]
        got = []
        net.register(a, lambda m: None)
        net.register(b, lambda m: got.append((sim.now_ms, m)))
        assert net.send(a, b.ip, "probe", payload=42)
        sim.run()
        assert len(got) == 1
        t, msg = got[0]
        assert t == pytest.approx(scenario.latency.host_rtt_ms(a, b) / 2.0)
        assert msg.payload == 42
        assert msg.category == "probe"

    def test_unregistered_destination_dropped(self, scenario):
        sim = Simulator()
        net = SimNetwork(sim, scenario.latency)
        a, b = scenario.population.hosts[0], scenario.population.hosts[1]
        net.register(a, lambda m: None)
        assert not net.send(a, b.ip, "probe")
        assert net.dropped == 1
        assert net.total_sent == 1  # counted at the sender regardless

    def test_category_counters(self, scenario):
        sim = Simulator()
        net = SimNetwork(sim, scenario.latency)
        a, b = scenario.population.hosts[0], scenario.population.hosts[1]
        net.register(a, lambda m: None)
        net.register(b, lambda m: None)
        net.send(a, b.ip, "probe")
        net.send(a, b.ip, "probe")
        net.send(b, a.ip, "join")
        assert net.sent_by_category["probe"] == 2
        assert net.sent_by_category["join"] == 1
        assert net.total_sent == 3


def _packet(t, src, dst, size, kind="voice"):
    return PacketRecord(
        time_ms=t,
        src_ip=IPv4Address.from_string(src),
        src_port=1000,
        dst_ip=IPv4Address.from_string(dst),
        dst_port=1000,
        size_bytes=size,
        kind=kind,
    )


class TestSessionTrace:
    def test_duration_and_merge(self):
        trace = SessionTrace(
            session_id=1,
            caller=IPv4Address.from_string("10.0.0.1"),
            callee=IPv4Address.from_string("10.0.0.2"),
        )
        trace.record_at_caller(_packet(0.0, "10.0.0.1", "10.0.0.2", 160))
        trace.record_at_callee(_packet(50.0, "10.0.0.2", "10.0.0.1", 160))
        trace.record_at_caller(_packet(100.0, "10.0.0.1", "10.0.0.9", 48))
        assert trace.duration_ms() == 100.0

    def test_packets_sent_by(self):
        trace = SessionTrace(
            session_id=1,
            caller=IPv4Address.from_string("10.0.0.1"),
            callee=IPv4Address.from_string("10.0.0.2"),
        )
        trace.record_at_caller(_packet(0.0, "10.0.0.1", "10.0.0.9", 160))
        trace.record_at_callee(_packet(1.0, "10.0.0.2", "10.0.0.1", 160))
        sent = trace.packets_sent_by(IPv4Address.from_string("10.0.0.1"))
        assert len(sent) == 1
        assert str(sent[0].dst_ip) == "10.0.0.9"
