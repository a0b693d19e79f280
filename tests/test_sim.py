"""Tests for the discrete-event engine, sim network, and trace records."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netaddr import IPv4Address
from repro.scenario import tiny_scenario
from repro.sim import PacketRecord, SessionTrace, SimNetwork, Simulator
from repro.sim.engine import SimulationError
from tests.oracles import ReferenceSimulator


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


class TestStart:
    """``start`` runs a coroutine in place only where ``spawn`` would
    have run it next; everywhere else it is ``spawn``."""

    def test_runs_in_place_as_an_event_actions_last_act(self):
        sim = Simulator()
        order = []

        async def flow():
            order.append("flow")
            await sim.sleep(1.0)

        def action():
            order.append("action")
            sim.start(flow())
            order.append("after start")

        sim.schedule(1.0, action)
        sim.run()
        assert order == ["action", "flow", "after start"]

    def test_queues_outside_an_action_and_behind_ready_coroutines(self):
        sim = Simulator()
        order = []

        async def flow(tag):
            order.append(tag)

        sim.start(flow("top level"))  # nothing drives it until run()
        assert order == []
        wait = sim.wait()

        async def waiter():
            await wait
            order.append("waiter")

        async def parent():
            sim.start(flow("child"))  # a coroutine is running: queued
            order.append("parent")

        def action():
            wait.resolve()  # the waiter is ready first ...
            sim.start(flow("queued"))  # ... so this one waits its turn

        sim.spawn(waiter())
        sim.spawn(parent())
        sim.schedule(1.0, action)
        sim.run()
        assert order == ["top level", "parent", "child", "waiter", "queued"]


#: A program: scripts[i] is a list of ops; a script only launches
#: scripts after it, so every program ends.  Event actions are a list of
#: ops plus an optional tail ``start`` (where ``start`` may run in place).
_DELAYS = st.sampled_from([0.0, 0.5, 1.0, 2.5])


@st.composite
def _programs(draw):
    count = draw(st.integers(1, 5))
    later = lambda i: st.integers(i + 1, count - 1) if i + 1 < count else st.nothing()

    def action_ops(i):
        ops = draw(st.lists(st.one_of(
            st.tuples(st.just("spawn"), later(i)),
            st.tuples(st.sampled_from(["resolve", "fail"]), st.integers(0, 6)),
        ), max_size=3))
        tail = draw(st.one_of(st.none(), later(i)))
        return ops, tail

    scripts = []
    for i in range(count):
        ops = []
        for _ in range(draw(st.integers(0, 5))):
            kind = draw(st.sampled_from(
                ["sleep", "sleep_until", "wait", "resolve", "fail", "spawn", "start",
                 "gather", "schedule", "raise"]
            ))
            if kind in ("sleep", "sleep_until"):
                ops.append((kind, draw(_DELAYS)))
            elif kind in ("resolve", "fail"):
                ops.append((kind, draw(st.integers(0, 6))))
            elif kind in ("spawn", "start") and i + 1 < count:
                ops.append((kind, draw(later(i))))
            elif kind == "gather" and i + 1 < count:
                ops.append((kind, draw(st.lists(later(i), max_size=3))))
            elif kind == "schedule":
                ops.append((kind, draw(_DELAYS), action_ops(i)))
            elif kind in ("wait", "raise"):
                ops.append((kind,))
        scripts.append(ops)
    roots = draw(st.lists(st.tuples(st.sampled_from(["spawn", "start"]), st.integers(0, count - 1)),
                          min_size=1, max_size=3))
    events = [(delay, action_ops(-1)) for delay in draw(st.lists(_DELAYS, max_size=3))]
    runs = draw(st.lists(st.one_of(
        st.just(("step",)),
        st.tuples(st.just("run"), st.one_of(st.none(), st.sampled_from([0.0, 1.0, 2.0, 4.0])),
                  st.one_of(st.none(), st.integers(0, 4))),
    ), max_size=4)) + [("run", None, None)]
    return scripts, roots, events, runs


class _Boom(Exception):
    pass


def _execute(program, sim):
    """Run a program; the (virtual time, coroutine id, step) trace, with
    event firings, drive results and escaped errors interleaved."""
    scripts, roots, events, runs = program
    trace, waits, made, ids = [], [], [], itertools.count()

    def make(script):
        made.append(body(script, next(ids)))
        return made[-1]

    def launch(how, script):
        getattr(sim, how)(make(script))

    def settle(kind, index):
        if index < len(waits):
            if kind == "resolve":
                waits[index].resolve(index)
            else:
                waits[index].fail(_Boom(index))

    def action(ops, tail):
        event = next(ids)

        def fire():
            trace.append((sim.now_ms, "event", event))
            for kind, arg in ops:
                launch("spawn", arg) if kind == "spawn" else settle(kind, arg)
            if tail is not None:
                launch("start", tail)

        return fire

    async def body(script, cid):
        trace.append((sim.now_ms, cid, 0))
        for step, op in enumerate(scripts[script], 1):
            kind, got = op[0], None
            try:
                if kind == "sleep":
                    await sim.sleep(op[1])
                elif kind == "sleep_until":
                    await sim.sleep_until(sim.now_ms + op[1])
                elif kind == "wait":
                    waits.append(sim.wait())
                    got = await waits[-1]
                elif kind in ("resolve", "fail"):
                    settle(kind, op[1])
                elif kind in ("spawn", "start"):
                    launch(kind, op[1])
                elif kind == "gather":
                    got = await sim.gather(*map(make, op[1]))
                elif kind == "schedule":
                    sim.schedule(op[1], action(*op[2]))
                else:
                    raise _Boom(cid)
            except _Boom as exc:
                if kind == "raise":
                    raise
                got = ("error", exc.args)
            trace.append((sim.now_ms, cid, step, got))
        return cid

    for how, script in roots:
        launch(how, script)
    for delay, ops in events:
        sim.schedule(delay, action(*ops))
    for drive in runs:
        try:
            done = sim.step() if drive[0] == "step" else sim.run(*drive[1:])
        except _Boom as exc:
            done = ("escaped", exc.args)
        trace.append((sim.now_ms, drive, done))
    # An error escaping the last run can leave coroutines (and gather
    # branches) unstarted; close them rather than leave them to the GC.
    for coro in [*sim._ready, *made]:
        coro.close()
    return trace


class TestOrderingModel:
    """Hypothesis programs of spawn / start / sleep / sleep_until /
    resolve / fail / gather, driven by bounded and unbounded runs and
    single steps, against the step-per-event, spawn-only reference."""

    @settings(max_examples=300, deadline=None)
    @given(_programs())
    def test_programs_run_in_the_reference_order(self, program):
        assert _execute(program, Simulator()) == _execute(program, ReferenceSimulator())


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
