"""Tests for the wire transports: loopback, TCP, and latency shaping.

The loopback's virtual clock must be exact and deterministic; the TCP
transport must round-trip the same frames over real sockets and map
every failure (silence, refusal, handler crash) onto the same
:mod:`repro.errors` types the retry policies consume.
"""

import asyncio
import socket
import time

import pytest

from repro.errors import RemoteError, TransportTimeout
from repro.net import sockets
from repro.net.codec import (
    ERR_INTERNAL,
    ERR_UNSUPPORTED,
    REQUEST,
    RESPONSE,
    FrameDecoder,
    MediaFrame,
    Ping,
    Pong,
    encode_frame,
)
from repro.net.shaped import ShapedTransport
from repro.net.loopback import LoopbackHub, LoopbackTransport
from repro.net.sockets import TcpTransport


async def _echo(sender, frame):
    return Pong(token=frame.message.token)


async def _crash(sender, frame):
    raise RuntimeError("handler bug")


async def _silent(sender, frame):
    return None


def _leftover_tasks(before):
    """Live tasks the code under test started (none may survive close)."""
    return asyncio.all_tasks() - before - {asyncio.current_task()}


def _split(address):
    host, _, port = address.rpartition(":")
    return host, int(port)


async def _read_frames(reader, count):
    decoder, frames = FrameDecoder(), []
    while len(frames) < count:
        data = await asyncio.wait_for(reader.read(65536), 2.0)
        assert data, "connection closed before every answer arrived"
        frames.extend(decoder.feed(data))
    return frames


def _loopback_pair(hub, shape=lambda t: t):
    a = shape(LoopbackTransport(hub, "a"))
    b = shape(LoopbackTransport(hub, "b"))
    return a, b


def _run_loopback(main, latency_ms_fn=None):
    hub = LoopbackHub(latency_ms_fn=latency_ms_fn)
    return hub, asyncio.run(hub.run(main(hub)))


class TestLoopback:
    def test_request_takes_exactly_one_rtt(self):
        async def main(hub):
            a, b = _loopback_pair(hub)
            b.bind(_echo)
            await a.start()
            await b.start()
            reply = await a.request("b", Ping(token=4), timeout_ms=100.0)
            return reply, hub.now_ms

        hub, (reply, now) = _run_loopback(
            main, latency_ms_fn=lambda s, d: 10.0
        )
        assert reply == Pong(token=4)
        assert now == pytest.approx(10.0)  # rtt/2 out + rtt/2 back

    def test_timeout_fires_at_exact_virtual_instant(self):
        async def main(hub):
            a, b = _loopback_pair(hub)
            b.bind(_silent)  # oneway-style handler: a request gets nothing
            await a.start()
            await b.start()
            with pytest.raises(RemoteError):
                # handler answers None to a REQUEST -> ERR_UNSUPPORTED reply
                await a.request("b", Ping(token=1), timeout_ms=50.0)
            with pytest.raises(TransportTimeout):
                # unreachable peer: only the timeout ends the wait
                await a.request("nowhere", Ping(token=2), timeout_ms=80.0)
            return hub.now_ms

        hub, now = _run_loopback(main, latency_ms_fn=lambda s, d: 4.0)
        assert now == pytest.approx(4.0 + 80.0)

    def test_handler_crash_maps_to_remote_error(self):
        async def main(hub):
            a, b = _loopback_pair(hub)
            b.bind(_crash)
            await a.start()
            await b.start()
            with pytest.raises(RemoteError) as err:
                await a.request("b", Ping(token=1), timeout_ms=50.0)
            return err.value.code

        _, code = _run_loopback(main)
        assert code == ERR_INTERNAL

    def test_gather_runs_branches_concurrently(self):
        async def main(hub):
            a, b = _loopback_pair(hub)
            b.bind(_echo)
            await a.start()
            await b.start()
            replies = await a.gather(
                a.request("b", Ping(token=1), timeout_ms=100.0),
                a.request("b", Ping(token=2), timeout_ms=100.0),
                a.sleep_ms(6.0),
            )
            return replies, hub.now_ms

        hub, (replies, now) = _run_loopback(main, latency_ms_fn=lambda s, d: 10.0)
        assert replies[:2] == [Pong(token=1), Pong(token=2)]
        # concurrent: one RTT total, not two
        assert now == pytest.approx(10.0)

    def test_same_program_is_deterministic(self):
        def run_once():
            events = []

            async def main(hub):
                a, b = _loopback_pair(hub)
                b.bind(_echo)
                await a.start()
                await b.start()
                for token in range(5):
                    await a.request("b", Ping(token=token), timeout_ms=100.0)
                    events.append((token, hub.now_ms))
                await a.sleep_ms(3.5)
                events.append(("end", hub.now_ms))

            hub, _ = _run_loopback(main, latency_ms_fn=lambda s, d: 7.0)
            return events, hub.deliveries, hub.now_ms

        assert run_once() == run_once()

    def test_deadlock_is_detected_not_hung(self):
        from repro.errors import ServiceError

        async def main(hub):
            # a wait nothing will ever resolve
            await hub.sim.wait()

        hub = LoopbackHub()
        with pytest.raises(ServiceError, match="deadlock"):
            asyncio.run(hub.run(main(hub)))

    def test_run_needs_no_event_loop(self):
        """``hub.run`` never suspends its caller: one ``send`` finishes a
        whole overlay run, with or without asyncio around it."""

        async def main(hub):
            a, b = _loopback_pair(hub)
            b.bind(_echo)
            await a.start()
            await b.start()
            replies = await a.gather(
                a.request("b", Ping(token=1), timeout_ms=100.0),
                a.request("b", Ping(token=2), timeout_ms=100.0),
            )
            await a.sleep_ms(2.5)
            return replies

        bare = LoopbackHub(latency_ms_fn=lambda s, d: 6.0)
        with pytest.raises(StopIteration) as stop:
            bare.run(main(bare)).send(None)
        looped, result = _run_loopback(main, latency_ms_fn=lambda s, d: 6.0)
        assert stop.value.value == result == [Pong(token=1), Pong(token=2)]
        assert (bare.now_ms, bare.deliveries) == (looped.now_ms, looped.deliveries)
        # stale request timeouts are drained, so the clock ends past them
        assert bare.now_ms == pytest.approx(100.0)


class TestTcp:
    def test_request_response_over_real_sockets(self):
        async def main():
            server = TcpTransport()
            server.bind(_echo)
            await server.start()
            client = TcpTransport()
            await client.start()
            try:
                reply = await client.request(
                    server.local_address, Ping(token=9), timeout_ms=2_000.0
                )
                return reply
            finally:
                await client.close()
                await server.close()

        assert asyncio.run(main()) == Pong(token=9)

    def test_unhandled_type_raises_remote_error(self):
        async def main():
            server = TcpTransport()
            await server.start()  # no handler bound
            client = TcpTransport()
            await client.start()
            try:
                with pytest.raises(RemoteError) as err:
                    await client.request(
                        server.local_address, Ping(token=1), timeout_ms=2_000.0
                    )
                return err.value.code
            finally:
                await client.close()
                await server.close()

        assert asyncio.run(main()) == ERR_UNSUPPORTED

    def test_connection_refused_maps_to_timeout(self):
        async def main():
            client = TcpTransport()
            await client.start()
            try:
                with pytest.raises(TransportTimeout):
                    await client.request(
                        "127.0.0.1:1", Ping(token=1), timeout_ms=500.0
                    )
            finally:
                await client.close()

        asyncio.run(main())


    def test_concurrent_first_requests_share_one_connection(self):
        # Regression: lanes racing through ``_get_conn`` on an empty pool
        # each opened a connection; the pool kept the last and ``close()``
        # never saw the others (a leaked socket per race).
        async def main():
            before = asyncio.all_tasks()
            senders = []

            async def echo(sender, frame):
                senders.append(sender)
                return Pong(token=frame.message.token)

            server = TcpTransport()
            server.bind(echo)
            await server.start()
            client = TcpTransport()
            await client.start()
            try:
                replies = await asyncio.gather(
                    *(
                        client.request(
                            server.local_address, Ping(token=i), timeout_ms=2_000.0
                        )
                        for i in range(8)
                    )
                )
                pooled = len(client._conns)
            finally:
                await client.close()
                await server.close()
            return replies, pooled, senders, _leftover_tasks(before)

        replies, pooled, senders, leftover = asyncio.run(main())
        assert replies == [Pong(token=i) for i in range(8)]
        assert pooled == 1
        assert len(senders) == 8 and len(set(senders)) == 1  # one accept
        assert not leftover

    def test_closed_server_stops_answering_its_pooled_connections(self):
        # Regression: close() stopped listening but kept serving accepted
        # connections, and left their tasks behind.
        async def main():
            before = asyncio.all_tasks()
            gate = asyncio.Event()

            async def handler(sender, frame):
                if frame.message.token == 1:
                    await gate.wait()  # an answer still suspended at close
                return Pong(token=frame.message.token)

            server = TcpTransport()
            server.bind(handler)
            await server.start()
            client = TcpTransport()
            addr = server.local_address
            try:
                assert await client.request(addr, Ping(token=0), 2_000.0) == Pong(token=0)
                stuck = asyncio.ensure_future(client.request(addr, Ping(token=1), 5_000.0))
                await asyncio.sleep(0.05)
                await server.close()
                started = time.monotonic()
                with pytest.raises(TransportTimeout):
                    await stuck
                with pytest.raises(TransportTimeout):
                    await client.request(addr, Ping(token=2), 5_000.0)
                elapsed = time.monotonic() - started
            finally:
                await client.close()
            return elapsed, _leftover_tasks(before)

        elapsed, leftover = asyncio.run(main())
        assert elapsed < 1.0  # failed at once, not after the 5 s timeout
        assert not leftover

    def test_peer_closing_mid_request_fails_it_at_once(self):
        async def main():
            async def hang_up(reader, writer):
                await reader.read(1)  # the request is arriving
                writer.close()

            peer = await asyncio.start_server(hang_up, "127.0.0.1", 0)
            port = peer.sockets[0].getsockname()[1]
            client = TcpTransport()
            started = time.monotonic()
            try:
                with pytest.raises(TransportTimeout, match="connection lost"):
                    await client.request(f"127.0.0.1:{port}", Ping(token=1), 5_000.0)
            finally:
                await client.close()
                peer.close()
                await peer.wait_closed()
            return time.monotonic() - started

        assert asyncio.run(main()) < 1.0

    def test_glued_requests_fed_one_byte_at_a_time_are_both_answered(self):
        async def main():
            server = TcpTransport()
            server.bind(_echo)
            await server.start()
            reader, writer = await asyncio.open_connection(*_split(server.local_address))
            stream = encode_frame(Ping(token=5), REQUEST, 11) + encode_frame(
                Ping(token=6), REQUEST, 12
            )
            try:
                for index in range(len(stream)):
                    writer.write(stream[index:index + 1])
                    await writer.drain()
                    await asyncio.sleep(0.001)
                frames = await _read_frames(reader, 2)
            finally:
                writer.close()
                await server.close()
            return [(f.request_id, f.flags, f.message) for f in frames]

        assert asyncio.run(main()) == [
            (11, RESPONSE, Pong(token=5)),
            (12, RESPONSE, Pong(token=6)),
        ]

    def test_corrupt_frame_closes_only_its_own_connection(self):
        async def main():
            server = TcpTransport()
            server.bind(_echo)
            await server.start()
            addr = server.local_address
            client = TcpTransport()
            try:
                await client.request(addr, Ping(token=1), 2_000.0)
                pooled = client._conns[addr]
                reader, writer = await asyncio.open_connection(*_split(addr))
                writer.write(b"XX" + encode_frame(Ping(token=2), REQUEST, 1)[2:])
                await writer.drain()
                eof = await asyncio.wait_for(reader.read(), 2.0)
                writer.close()
                reply = await client.request(addr, Ping(token=3), 2_000.0)
                kept = client._conns[addr] is pooled and not pooled.closed
            finally:
                await client.close()
                await server.close()
            return eof, reply, kept

        assert asyncio.run(main()) == (b"", Pong(token=3), True)

    def test_suspending_and_inline_answers_interleave_on_one_connection(self):
        async def main():
            async def mixed(sender, frame):
                token = frame.message.token
                if token % 2:
                    await asyncio.sleep(0.002 * (8 - token))  # suspends
                return Pong(token=token)

            server = TcpTransport()
            server.bind(mixed)
            await server.start()
            reader, writer = await asyncio.open_connection(*_split(server.local_address))
            try:
                writer.write(
                    b"".join(
                        encode_frame(Ping(token=t), REQUEST, 100 + t) for t in range(8)
                    )
                )
                await writer.drain()
                frames = await _read_frames(reader, 8)
            finally:
                writer.close()
                await server.close()
            return [(f.request_id, f.message.token) for f in frames]

        answered = asyncio.run(main())
        assert sorted(answered) == [(100 + t, t) for t in range(8)]
        # inline answers leave first, in order; the suspended ones follow
        assert [token for _, token in answered[:4]] == [0, 2, 4, 6]
        assert [token for _, token in answered[4:]] == [7, 5, 3, 1]

    def test_reply_over_the_write_high_water_mark_round_trips(self, monkeypatch):
        pauses = []
        pause = sockets._Conn.pause_writing

        def counted(conn):
            pauses.append(conn)
            pause(conn)

        monkeypatch.setattr(sockets._Conn, "pause_writing", counted)
        payload = bytes(range(256)) * 3_000  # 768,000 B, far over 64 KiB

        def _frame(seq, payload):
            return MediaFrame(call_id=1, seq=seq, timestamp_ms=0.0, codec=0, payload=payload)

        async def main():
            async def big(sender, frame):
                return _frame(frame.message.token, payload)

            server = TcpTransport()
            server.bind(big)
            await server.start()
            client = TcpTransport()
            addr = server.local_address
            try:
                await client.request(addr, Ping(token=0), 2_000.0)
                # Small kernel buffers make the write queue in asyncio.
                (accepted,) = server._open
                accepted.sock.get_extra_info("socket").setsockopt(
                    socket.SOL_SOCKET, socket.SO_SNDBUF, 4096
                )
                client._conns[addr].sock.get_extra_info("socket").setsockopt(
                    socket.SOL_SOCKET, socket.SO_RCVBUF, 4096
                )
                reply = await client.request(addr, Ping(token=7), 5_000.0)
                resumed = accepted.drained is None
            finally:
                await client.close()
                await server.close()
            return reply, resumed

        reply, resumed = asyncio.run(main())
        assert reply == _frame(7, payload)
        assert pauses and resumed


class TestWrappers:
    def test_shaped_injects_per_destination_rtt(self):
        async def main(hub):
            raw_a, b = _loopback_pair(hub)
            a = ShapedTransport(raw_a, {"b": 120.0}.get)
            b.bind(_echo)
            await a.start()
            await b.start()
            start = a.now_ms()
            await a.request("b", Ping(token=1), timeout_ms=1_000.0)
            return a.now_ms() - start

        _, elapsed = _run_loopback(main, latency_ms_fn=lambda s, d: 0.0)
        assert elapsed == pytest.approx(120.0)

    def test_shaped_unregistered_destination_passes_through(self):
        async def main(hub):
            raw_a, b = _loopback_pair(hub)
            a = ShapedTransport(raw_a, {"c": 120.0}.get)
            b.bind(_echo)
            await a.start()
            await b.start()
            start = a.now_ms()
            await a.request("b", Ping(token=1), timeout_ms=1_000.0)
            return a.now_ms() - start

        _, elapsed = _run_loopback(main, latency_ms_fn=lambda s, d: 8.0)
        assert elapsed == pytest.approx(8.0)


class TestBackpressure:
    """Per-connection in-flight caps with a bounded wait queue."""

    def test_full_queue_rejects_as_backpressure_timeout(self):
        async def main():
            gate = asyncio.Event()

            async def slow(sender, frame):
                await gate.wait()
                return Pong(token=frame.message.token)

            server = TcpTransport()
            server.bind(slow)
            await server.start()
            client = TcpTransport(max_in_flight=1, max_waiters=1)
            await client.start()
            try:
                first = asyncio.ensure_future(
                    client.request(server.local_address, Ping(token=1), 5_000.0)
                )
                await asyncio.sleep(0.05)  # occupies the single slot
                second = asyncio.ensure_future(
                    client.request(server.local_address, Ping(token=2), 5_000.0)
                )
                await asyncio.sleep(0.05)  # fills the single queue seat
                with pytest.raises(TransportTimeout, match="backpressure"):
                    await client.request(server.local_address, Ping(token=3), 5_000.0)
                gate.set()  # queued work still completes in order
                return await first, await second
            finally:
                await client.close()
                await server.close()

        r1, r2 = asyncio.run(main())
        assert r1 == Pong(token=1)
        assert r2 == Pong(token=2)

    def test_waiter_times_out_when_slot_never_frees(self):
        async def main():
            gate = asyncio.Event()

            async def slow(sender, frame):
                await gate.wait()
                return Pong(token=frame.message.token)

            server = TcpTransport()
            server.bind(slow)
            await server.start()
            client = TcpTransport(max_in_flight=1, max_waiters=8)
            await client.start()
            try:
                first = asyncio.ensure_future(
                    client.request(server.local_address, Ping(token=1), 5_000.0)
                )
                await asyncio.sleep(0.05)
                with pytest.raises(TransportTimeout, match="no free slot"):
                    await client.request(server.local_address, Ping(token=2), 200.0)
                gate.set()
                return await first
            finally:
                await client.close()
                await server.close()

        assert asyncio.run(main()) == Pong(token=1)

    def test_throughput_unharmed_below_the_cap(self):
        async def main():
            server = TcpTransport()
            server.bind(_echo)
            await server.start()
            client = TcpTransport(max_in_flight=4, max_waiters=64)
            await client.start()
            try:
                replies = await asyncio.gather(
                    *[
                        client.request(server.local_address, Ping(token=t), 5_000.0)
                        for t in range(20)
                    ]
                )
                return replies
            finally:
                await client.close()
                await server.close()

        replies = asyncio.run(main())
        assert sorted(r.token for r in replies) == list(range(20))
