"""End-to-end tests for the service layer: daemons, demo, determinism.

The demo must complete a relayed call over both substrates; same-seed
loopback runs must be byte-identical including ``traces.jsonl``; and
the span vocabulary written by the daemons must match the simulated
runtime's, so one trace-analysis toolkit reads both.
"""

import asyncio
import hashlib
import json
from collections import Counter

import numpy as np
import pytest

from repro import obs
from repro.core.close_cluster import CloseClusterEntry, CloseClusterSet
from repro.core.runtime import RuntimePolicy
from repro.errors import ProtocolError, RemoteError
from repro.net.codec import (
    ERR_NOT_SERVING,
    ROLE_HOST,
    CloseSetReply,
    Join,
    JoinOk,
    Leave,
    Resolve,
    ResolveOk,
)
from repro.net.loopback import LoopbackHub, LoopbackTransport
from repro.netaddr import IPv4Address
from repro.service import ServiceWorld, run_demo
from repro.service.bootstrap import BootstrapServer
from repro.service.surrogate import (
    SurrogateServer,
    close_set_to_pairs,
    pairs_to_close_set,
)

SCALE, SEED = "tiny", 0


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("scenario-cache"))


@pytest.fixture()
def world(cache_dir):
    # A fresh world per test: the embedded ASAPSystem accumulates join
    # state, so reuse would leak one run's registrations into the next.
    return ServiceWorld.from_scale(SCALE, SEED, cache_dir=cache_dir)


def _traced_demo(out_dir, world):
    obs.start_run(str(out_dir), command="demo", trace=True)
    try:
        result = run_demo(world=world, calls=1, media_ms=2_000.0)
    finally:
        obs.finish_run()
    return result, (out_dir / obs.TRACES_FILENAME).read_bytes()


class TestLoopbackDemo:
    def test_completes_a_relayed_call(self, world):
        result = run_demo(world=world, calls=1, media_ms=2_000.0)
        assert result.completed == 1
        assert result.relayed == 1
        assert result.best_mos() > 3.5
        assert result.media_delivered[0] > 0
        assert result.wire_drops == 0
        call = result.calls[0]
        assert call.path_rtt_ms < call.direct_rtt_ms
        assert call.selection_messages > 0
        # the setup critical path was recorded step by step
        assert [name for name, _ in call.steps][:2] == ["ping", "close_set"]

    def test_same_seed_runs_are_byte_identical(self, tmp_path, cache_dir):
        runs = []
        for name in ("a", "b"):
            world = ServiceWorld.from_scale(SCALE, SEED, cache_dir=cache_dir)
            out = tmp_path / name
            result, trace_bytes = _traced_demo(out, world)
            runs.append((result, trace_bytes))
        (r1, t1), (r2, t2) = runs
        assert t1 == t2  # traces.jsonl byte-identical
        assert r1.virtual_ms == r2.virtual_ms
        assert r1.wire_deliveries == r2.wire_deliveries
        assert [c.mos for c in r1.calls] == [c.mos for c in r2.calls]

    def test_concurrent_dials_from_one_caller_keep_their_own_relay(self, cache_dir):
        """The relay a dial established belongs to that dial: with several
        dials in flight from one agent, every relayed call's frames still
        arrive, under its own call_id."""
        world = ServiceWorld.from_scale("small", 0, cache_dir=cache_dir)
        result = run_demo(world=world, calls=6, media_ms=1_000.0, media_frames=True)
        dialed, relayed = Counter(), Counter()
        for index, call in enumerate(result.calls):
            dialed[call.caller] += 1
            if call.path != "relay":
                continue
            relayed[call.caller] += 1
            call_id = (call.caller.value << 16) | dialed[call.caller]
            trace = result.frame_traces[index].get(call_id)
            assert trace is not None, f"call {index}: no frames under its call_id"
            received = sum(1 for frame in trace.frames if not frame.lost)
            assert received >= 0.9 * call.media_packets
        assert max(relayed.values()) >= 2  # the shape under test

    def test_relayed_dial_runs_each_selection_step_once(self, tmp_path, world, monkeypatch):
        from repro.core import dial, relay_selection

        calls = {"select_close_relay": 0, "select_one_hop": 0, "select_two_hop": 0}

        def counting(module, name):
            genuine = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return genuine(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counting(relay_selection, "select_close_relay")
        counting(dial, "select_one_hop")
        counting(dial, "select_two_hop")
        result, trace_bytes = _traced_demo(tmp_path / "t", world)
        assert result.relayed == 1
        assert calls == {"select_close_relay": 0, "select_one_hop": 1, "select_two_hop": 1}
        # Recorded from the two-pass dial this one replaced (same scale and
        # seed): the bill and every span are unchanged, except the media
        # span's packet count — voice is codec frames now, 100 per 2 s
        # call where the retired Media packets were 10.
        assert result.calls[0].selection_messages == 60
        assert hashlib.sha256(trace_bytes).hexdigest() == (
            "11d338e8283c135827ff2cc60716211cbc0002dd6d4406a5b0770f12055599a0"
        )

    def test_span_vocabulary_matches_the_runtime(self, tmp_path, world):
        _, trace_bytes = _traced_demo(tmp_path / "t", world)
        records = [
            json.loads(line) for line in trace_bytes.splitlines() if line
        ]
        assert records[0]["kind"] == "header"
        names = {r["name"] for r in records if r["kind"] in ("span", "point")}
        # the simulated runtime's vocabulary, produced by real daemons
        assert {"join", "call", "setup.ping", "setup.select",
                "setup.close_set", "setup.done", "media",
                "net.request"} <= names
        requests = [
            r for r in records
            if r["kind"] == "span" and r["name"] == "net.request"
        ]
        assert requests
        for record in requests:
            assert "category" in record["attrs"]
            assert record["attrs"]["outcome"] in ("response", "timeout", "error")
        # and the file validates against the trace schema
        assert obs.validate_trace_records(
            obs.load_trace_file(tmp_path / "t" / obs.TRACES_FILENAME)
        ) == []

    def test_latent_pairs_exclude_surrogate_hosts(self, world):
        reserved = world.surrogate_ips()
        for caller, callee in world.latent_pairs(3):
            assert caller not in reserved
            assert callee not in reserved

    @pytest.mark.parametrize("scale", ["tiny", "small"])
    def test_latent_pairs_keep_the_scalar_loop_order(self, scale, cache_dir):
        # The specification: every matrix cell above the diagonal in
        # python, sorted as (-rtt, a, b) tuples.
        world = ServiceWorld.from_scale(scale, SEED, cache_dir=cache_dir)
        rtt = world.scenario.matrices.rtt_ms
        candidates = []
        for a in range(rtt.shape[0]):
            for b in range(a + 1, rtt.shape[1]):
                value = float(rtt[a, b])
                if np.isfinite(value) and value >= world.config.lat_threshold_ms:
                    candidates.append((-value, a, b))
        candidates.sort()
        reserved = world.surrogate_ips()
        expected = []
        for _, a, b in candidates:
            ends = [
                next((h.ip for h in world.hosts_in_cluster(c) if h.ip not in reserved), None)
                for c in (a, b)
            ]
            if None in ends:
                continue
            selection = world.system.call(*ends).selection
            if selection is not None and selection.quality_paths > 0:
                expected.append(tuple(ends))
        assert len(expected) > 5
        for count in (1, 5, len(expected) + 1):
            assert world.latent_pairs(count) == expected[:count]


class TestBootstrapHardening:
    """Registration edge cases: duplicates, misses, deregistration."""

    def _overlay(self, world, hub):
        async def setup():
            bootstrap = BootstrapServer(world, LoopbackTransport(hub, "boot"))
            await bootstrap.start()
            cluster = world.populated_clusters()[0]
            surrogate = SurrogateServer(
                world, cluster, LoopbackTransport(hub, "surr"), bootstrap.address
            )
            await surrogate.start()
            await surrogate.register()
            client = LoopbackTransport(hub, "client")
            await client.start()
            host = next(
                h for h in world.hosts_in_cluster(cluster)
                if h.ip != world.surrogate_ip(cluster)
            )
            return bootstrap, client, host

        return setup

    def test_duplicate_join_is_idempotent(self, world):
        async def main(hub):
            bootstrap, client, host = await self._overlay(world, hub)()
            join = Join(ip=host.ip, role=ROLE_HOST, cluster=-1, wire_addr="client")
            first = await client.request("boot", join, timeout_ms=1_000.0)
            second = await client.request("boot", join, timeout_ms=1_000.0)
            return bootstrap, host, first, second

        hub = LoopbackHub(latency_ms_fn=lambda s, d: 1.0)
        bootstrap, host, first, second = asyncio.run(hub.run(main(hub)))
        assert isinstance(first, JoinOk)
        assert second == first  # same cluster, same surrogate
        assert (bootstrap.registry.joins, bootstrap.registry.refreshes) == (3, 1)
        assert bootstrap.registry.total() == 2  # the surrogate daemon + the host
        assert bootstrap.registry.resolve(host.ip, 0.0)[2] == "client"

    def test_join_from_outside_the_world_registers_nothing(self, world):
        stranger = IPv4Address(0xDEADBEEF)

        async def main(hub):
            bootstrap, client, _ = await self._overlay(world, hub)()
            join = Join(ip=stranger, role=ROLE_HOST, cluster=-1, wire_addr="client")
            try:
                await client.request("boot", join, timeout_ms=1_000.0)
            except RemoteError as exc:
                refused = exc
            found = await client.request("boot", Resolve(ip=stranger), timeout_ms=1_000.0)
            return bootstrap, refused, found

        hub = LoopbackHub(latency_ms_fn=lambda s, d: 1.0)
        bootstrap, refused, found = asyncio.run(hub.run(main(hub)))
        assert (refused.code, refused.detail) == (ERR_NOT_SERVING, f"no cluster covers {stranger}")
        assert found.found == 0
        assert bootstrap.registry.joins == 1  # the surrogate daemon's registration only

    def test_resolve_unknown_host_is_well_formed_not_found(self, world):
        async def main(hub):
            _, client, _ = await self._overlay(world, hub)()
            return await client.request(
                "boot", Resolve(ip=IPv4Address(0xDEADBEEF)), timeout_ms=1_000.0
            )

        hub = LoopbackHub(latency_ms_fn=lambda s, d: 1.0)
        reply = asyncio.run(hub.run(main(hub)))
        assert isinstance(reply, ResolveOk)
        assert reply.found == 0
        assert reply.addr == ""

    def test_leave_deregisters_and_is_safe_to_repeat(self, world):
        async def main(hub):
            bootstrap, client, host = await self._overlay(world, hub)()
            join = Join(ip=host.ip, role=ROLE_HOST, cluster=-1, wire_addr="client")
            await client.request("boot", join, timeout_ms=1_000.0)
            await client.send("boot", Leave(ip=host.ip))
            await client.sleep_ms(10.0)
            gone = await client.request(
                "boot", Resolve(ip=host.ip), timeout_ms=1_000.0
            )
            await client.send("boot", Leave(ip=host.ip))  # duplicate: no-op
            await client.sleep_ms(10.0)
            return bootstrap, gone

        hub = LoopbackHub(latency_ms_fn=lambda s, d: 1.0)
        bootstrap, gone = asyncio.run(hub.run(main(hub)))
        assert gone.found == 0
        assert bootstrap.registry.removals == 1


class TestCloseSetWire:
    """Close sets travel as strictly ascending (cluster, rtt) pairs."""

    def test_pairs_round_trip_the_rows(self, world):
        built = world.close_set(world.populated_clusters()[0])
        clusters = world.scenario.matrix_view().count
        unsorted = CloseClusterSet(owner=7)
        for cluster, rtt in ((9, 1.5), (2, 0.25)):  # added out of order
            unsorted.add(CloseClusterEntry(cluster, rtt, 0.0, 1))
        for close_set in (built, unsorted, CloseClusterSet(owner=3)):
            pairs = close_set_to_pairs(close_set)
            assert pairs == [(c, close_set.entries[c].rtt_ms) for c in sorted(close_set.entries)]
            entries = CloseSetReply(close_set.owner, pairs).entries
            decoded = pairs_to_close_set(close_set.owner, entries, clusters)
            for got, want in zip(decoded.rows(), close_set.rows()):
                assert got.dtype == want.dtype and np.array_equal(got, want)
            assert list(decoded.entries) == decoded.clusters() == close_set.clusters()
            assert [e.rtt_ms for e in decoded.entries.values()] == close_set.rows()[1].tolist()

    @pytest.mark.parametrize(
        "pairs",
        [
            ((4, 10.0), (4, 20.0)),             # duplicate id (was: last wins)
            ((5, 10.0), (4, 20.0)),             # descending
            ((4, -1.0),),                       # negative RTT
            ((4, float("nan")),),
            ((4, 10.0), (6, float("inf"))),
            ((4, 10.0), (100, 1.0)),            # id beyond the world's 100 clusters
            ((2**32 - 1, 1.0),),
        ],
    )
    def test_malformed_pairs_are_a_protocol_error(self, pairs):
        with pytest.raises(ProtocolError):
            pairs_to_close_set(1, pairs, 100)

    def _demo_with_corrupt_replies(self, out_dir, world, monkeypatch, corrupts):
        """A traced one-call demo whose surrogates answer the queries
        ``corrupts`` picks with their pairs in descending order."""
        genuine = SurrogateServer._on_close_set_query

        async def answer(server, sender, message):
            reply = await genuine(server, sender, message)
            if isinstance(reply, CloseSetReply) and corrupts(message):
                return CloseSetReply(reply.owner, tuple(reversed(reply.entries)))
            return reply

        monkeypatch.setattr(SurrogateServer, "_on_close_set_query", answer)
        result, trace_bytes = _traced_demo(out_dir, world)
        records = [json.loads(line) for line in trace_bytes.splitlines() if line]
        return result.calls[0], records

    def test_malformed_close_set_leg_is_retried_then_degrades(
        self, tmp_path, world, monkeypatch
    ):
        call, records = self._demo_with_corrupt_replies(
            tmp_path, world, monkeypatch, corrupts=lambda query: True
        )
        legs = [r["attrs"]["outcome"] for r in records if r.get("name") == "setup.close_set"]
        assert legs and set(legs) == {"malformed"}
        assert len(legs) == 2 * RuntimePolicy().max_close_set_attempts  # both legs, every retry
        assert (call.outcome, call.failure_reason) == ("degraded", "close-set-unavailable")
        assert call.path == "direct"

    def test_malformed_two_hop_answer_skips_that_first_hop(
        self, tmp_path, world, monkeypatch
    ):
        # Two-hop queries name their cluster; the two legs ask with -1.
        call, records = self._demo_with_corrupt_replies(
            tmp_path, world, monkeypatch, corrupts=lambda query: query.cluster >= 0
        )
        expansions = [r["attrs"]["outcome"] for r in records if r.get("name") == "setup.two_hop"]
        assert expansions and set(expansions) == {"malformed"}
        select = next(r for r in records if r.get("name") == "setup.select")
        assert select["attrs"]["two_hop"] == 0 and select["attrs"]["one_hop"] > 0
        assert call.outcome == "completed"


    def test_forged_member_id_on_the_peer_leg_is_malformed(self, tmp_path, world, monkeypatch):
        """A peer-leg reply naming cluster 2**32 - 1 (ids still ascending)
        ends that leg malformed; the retry's honest set carries the dial,
        and no leg table is sized by the forged id."""
        from repro.core import relay_selection
        from repro.service.host import HostAgent

        genuine_reply, genuine_table = HostAgent._on_close_set_query, relay_selection._leg_table
        forged, widths = [], []

        async def answer(agent, sender, message):
            reply = await genuine_reply(agent, sender, message)
            if forged:
                return reply
            forged.append(reply.owner)
            return CloseSetReply(reply.owner, reply.entries + ((2**32 - 1, 1.0),))

        def leg_table(s2):
            table = genuine_table(s2)
            widths.append(len(table))
            return table

        monkeypatch.setattr(HostAgent, "_on_close_set_query", answer)
        monkeypatch.setattr(relay_selection, "_leg_table", leg_table)
        result, trace_bytes = _traced_demo(tmp_path, world)
        records = [json.loads(line) for line in trace_bytes.splitlines() if line]
        peer = [
            r["attrs"]["outcome"]
            for r in records
            if r.get("name") == "setup.close_set" and r["attrs"]["leg"] == "peer"
        ]
        assert forged and peer == ["malformed", "ok"]
        assert result.calls[0].outcome in ("completed", "degraded", "failed")
        assert widths and max(widths) <= world.scenario.matrix_view().count + 1


class TestShardedDemo:
    def test_three_shard_overlay_completes_and_routes_home(self, world):
        result = run_demo(world=world, calls=1, media_ms=1_000.0, shards=3)
        assert result.completed == 1
        assert result.relayed == 1
        assert result.shard_count == 3
        # The router sent every join to the ring owner of its cluster.
        assert result.foreign_joins == [0, 0, 0]


class TestTcpDemo:
    def test_completes_the_same_call_over_real_sockets(self, world, cache_dir):
        tcp = run_demo(world=world, calls=1, media_ms=1_000.0, transport="tcp")
        assert tcp.completed == 1
        assert tcp.relayed == 1
        assert tcp.best_mos() > 3.5
        # the relay decision agrees with a loopback run of the same world
        loop = run_demo(
            world=ServiceWorld.from_scale(SCALE, SEED, cache_dir=cache_dir),
            calls=1,
            media_ms=1_000.0,
        )
        assert tcp.calls[0].relay_cluster == loop.calls[0].relay_cluster
        assert tcp.calls[0].path_rtt_ms == pytest.approx(
            loop.calls[0].path_rtt_ms
        )
