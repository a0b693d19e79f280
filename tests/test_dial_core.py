"""The one call flow (``repro.core.dial``) on both of its substrates.

The same faults are injected into the simulated runtime and into a
loopback overlay of real daemons, and both must end the same way; a
fault-free latent call must make the same decisions on both; and the
wire dial must tear down what it set up and send every voice frame.
"""

import asyncio

import pytest

from repro import obs
from repro.core.relay_selection import ranked_relay_clusters
from repro.core.runtime import ASAPRuntime
from repro.net.codec import CallAccept, CallSetup
from repro.net.loopback import LoopbackTransport
from repro.service import ServiceWorld, run_demo
from repro.service.demo import _relay_pool_ips, loopback_hub, start_agents, start_servers
from repro.voip.codecs import G729A_VAD

#: A call long enough for keepalives after the relay dies mid-call.
MEDIA_MS = 12_000.0
#: When the relay dies, counted from the dial's start.
KILL_AFTER_MS = 4_000.0


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("scenario-cache"))


def _world(scale, cache_dir):
    # Fresh per use: the embedded ASAPSystem accumulates join state.
    return ServiceWorld.from_scale(scale, 0, cache_dir=cache_dir)


async def _overlay(world, hub, caller, callee):
    """The demo's overlay for one pair on ``hub``: (surrogates by
    cluster, joined agents by ip)."""
    make = lambda address: LoopbackTransport(hub, address)
    servers = await start_servers(world, make)
    agents = await start_agents(world, make, servers.router, [(caller, callee)])
    return servers.surrogates, agents


def _sim_call(world, fault, caller, callee):
    runtime = ASAPRuntime(world.scenario, world.config)
    system = runtime.system
    if fault == "callee-down":
        runtime.network.set_host_down(callee)
    if fault == "surrogate-down":
        for member in system.surrogate_group(system.cluster_of_ip(caller)):
            runtime.network.set_host_down(member.ip)
    record = runtime.schedule_call(caller, callee, media_duration_ms=MEDIA_MS)
    if fault == "relay-dies":
        runtime.run(until_ms=KILL_AFTER_MS)
        assert record.relay_ip is not None
        runtime.fail_host(record.relay_ip)
    runtime.run()
    assert runtime.pending_records() == []
    return record


def _loopback_call(world, fault, caller, callee):
    hub = loopback_hub(world)

    async def main():
        surrogates, agents = await _overlay(world, hub, caller, callee)
        if fault == "callee-down":
            await agents[callee].close()
        if fault == "surrogate-down":
            await surrogates[world.cluster_of_ip(caller)].close()
        dial = agents[caller].dial(callee, media_ms=MEDIA_MS)
        if fault != "relay-dies":
            return await dial

        async def kill_the_relay():
            await hub.sleep_ms(KILL_AFTER_MS)
            for agent in agents.values():
                if agent._relaying:
                    await agent.close()

        record, _ = await hub.gather(dial, kill_the_relay())
        return record

    return asyncio.run(hub.run(main()))


SUBSTRATES = {"sim": _sim_call, "loopback": _loopback_call}


@pytest.mark.parametrize("substrate", sorted(SUBSTRATES))
class TestFaultMatrix:
    def test_relay_death_fails_over_or_degrades(self, substrate, cache_dir):
        world = _world("tiny", cache_dir)
        caller, callee = world.latent_pairs(1)[0]
        with obs.observe(command="test", trace=True):
            record = SUBSTRATES[substrate](world, "relay-dies", caller, callee)
            names = [r["name"] for r in obs.tracer().records if r.get("kind") == "point"]
        assert (record.outcome, record.path) == ("completed", "relay")
        media = record.media
        assert media.outcome in ("finished", "dropped")
        assert media.failovers and media.failovers[0].old_relay == record.relay_ip
        assert "media.relay_lost" in names
        assert {"media.failover", "media.degraded"} & set(names)

    def test_callee_down_fails(self, substrate, cache_dir):
        world = _world("tiny", cache_dir)
        caller, callee = world.latent_pairs(1)[0]
        record = SUBSTRATES[substrate](world, "callee-down", caller, callee)
        assert (record.outcome, record.failure_reason) == ("failed", "ping-timeout")
        assert record.setup_ms is None and record.media is None

    def test_unreachable_surrogate_degrades_to_direct(self, substrate, cache_dir):
        world = _world("tiny", cache_dir)
        caller, callee = world.latent_pairs(1)[0]
        record = SUBSTRATES[substrate](world, "surrogate-down", caller, callee)
        assert (record.outcome, record.failure_reason) == ("degraded", "close-set-unavailable")
        assert record.path == "direct" and record.media.outcome == "finished"


def _relay_agent_in_best_cluster(world, pair):
    """Whether the overlay runs a relay agent in the pair's best relay
    cluster (a cluster whose only host runs its surrogate daemon has
    none; the simulator would relay through that host)."""
    best = ranked_relay_clusters(world.system.call(*pair).selection)[0][1]
    pool = _relay_pool_ips(world, [pair], set(pair))
    return any(world.cluster_of_ip(ip) == best for ip in pool)


def test_zero_fault_latent_call_decides_alike_on_both_substrates(cache_dir):
    world = _world("small", cache_dir)
    pair = next(p for p in world.latent_pairs(8) if _relay_agent_in_best_cluster(world, p))
    sim = _sim_call(world, None, *pair)
    wire = _loopback_call(world, None, *pair)
    assert sim.outcome == wire.outcome == "completed"
    assert sim.relay_cluster == wire.relay_cluster is not None
    assert sim.selection_messages == wire.selection_messages > 0


def test_every_exit_after_relay_setup_tears_the_relay_down(cache_dir):
    world = _world("tiny", cache_dir)
    caller, callee = world.latent_pairs(1)[0]
    hub = loopback_hub(world)

    async def reject(sender, message):
        return CallAccept(call_id=message.call_id, accept=0)

    async def main():
        _, agents = await _overlay(world, hub, caller, callee)
        without_media = await agents[caller].dial(callee)
        agents[callee].handle(CallSetup, reject)
        rejected = await agents[caller].dial(callee, media_ms=1_000.0)
        return agents, without_media, rejected

    agents, without_media, rejected = asyncio.run(hub.run(main()))
    assert without_media.path == rejected.path == "relay"
    assert (rejected.outcome, rejected.failure_reason) == ("failed", "call-rejected")
    assert all(not agent._relaying for agent in agents.values())


def test_voice_never_pauses_for_a_keepalive(cache_dir):
    world = _world("small", cache_dir)
    result = run_demo(world=world, calls=16, media_ms=4_000.0)
    frames = 4_000.0 / G729A_VAD.packet_interval_ms()
    assert frames == 200
    assert {call.path for call in result.calls} == {"relay", "direct"}
    assert any(call.keepalives for call in result.calls)
    assert [call.media_packets for call in result.calls] == [frames] * len(result.calls)
