"""Unit tests for the node roles: the bootstrap's join (``ASAPSystem.join``
and the wire ``BootstrapServer``), Surrogate, and the end host's join
(``run_join`` over the simulated runtime's port)."""

import asyncio

import pytest

from repro.bgp import ASGraph
from repro.core import ASAPSystem
from repro.core.config import ASAPConfig
from repro.core.runtime import ASAPRuntime, _SimPort
from repro.core.surrogate import Surrogate
from repro.errors import ProtocolError, RemoteError
from repro.net.codec import ERR_NOT_SERVING, ROLE_HOST, Join
from repro.net.loopback import LoopbackHub, LoopbackTransport
from repro.netaddr import IPv4Address, IPv4Prefix
from repro.service import ServiceWorld
from repro.service.bootstrap import BootstrapServer
from repro.topology.population import Host, NodalInfo
from tests.oracles import construct_close_cluster_set, prefix_contains, tiny_scenario


PFX = IPv4Prefix.from_string("10.0.0.0/24")


def make_host(ip="10.0.0.9", asn=7, bandwidth=500.0):
    return Host(
        ip=IPv4Address.from_string(ip),
        asn=asn,
        prefix=PFX,
        access_delay_ms=3.0,
        info=NodalInfo(bandwidth_kbps=bandwidth, uptime_hours=10.0, cpu_score=2.0),
    )


@pytest.fixture(scope="module")
def scenario():
    return tiny_scenario(seed=2)


def multi_host_cluster(scenario):
    cluster = max(scenario.clusters.all_clusters(), key=len)
    if len(cluster) < 2:
        pytest.skip("no multi-host cluster")
    return scenario.matrices.index_of[cluster.prefix], cluster


class TestBootstrap:
    def test_join_resolves_prefix_and_surrogate(self, scenario):
        system = ASAPSystem(scenario)
        host = scenario.population.hosts[3]
        surrogate = system.join(host.ip)
        idx = system.cluster_of_ip(host.ip)
        assert prefix_contains(scenario.matrices.prefixes[idx], host.ip)
        assert surrogate is system.surrogate(idx, requester=host.ip)
        assert surrogate.asn == host.asn
        assert surrogate.published_info[host.ip] == host.info

    def test_join_unrouted_ip_rejected(self, scenario):
        system = ASAPSystem(scenario)
        with pytest.raises(ProtocolError):
            system.join(IPv4Address.from_string("203.0.113.1"))

    def test_join_without_surrogate_rejected(self, scenario):
        """On the wire, a cluster no surrogate daemon registered for
        cannot be joined: the bootstrap answers ``ERR_NOT_SERVING``."""
        world = ServiceWorld(scenario)
        host = scenario.population.hosts[0]
        hub = LoopbackHub(latency_ms_fn=lambda src, dst: 1.0)

        async def main():
            server = BootstrapServer(world, LoopbackTransport(hub, "boot"))
            await server.start()
            client = LoopbackTransport(hub, "client")
            await client.start()
            join = Join(ip=host.ip, role=ROLE_HOST, cluster=-1, wire_addr="client")
            return await client.request("boot", join, timeout_ms=1_000.0)

        with pytest.raises(RemoteError) as raised:
            asyncio.run(hub.run(main()))
        assert raised.value.code == ERR_NOT_SERVING

    def test_register_surrogate(self, scenario):
        """A failed surrogate's replacement is what later joins learn."""
        runtime = ASAPRuntime(scenario)
        idx, cluster = multi_host_cluster(scenario)
        promoted = runtime.system.leave(runtime.system.surrogate(idx).ip)
        assert runtime.system.surrogate(idx).ip == promoted.ip
        joiner = next(h for h in cluster.hosts if h.ip != promoted.ip)
        serving = runtime.system.join(joiner.ip)
        assert serving in runtime.system.surrogate_group(idx)
        assert serving.published_info[joiner.ip] == joiner.info


def make_surrogate(host=None):
    graph = ASGraph()
    graph.add_as(7)
    return Surrogate(
        cluster=0,
        asn=7,
        host=host or make_host("10.0.0.5"),
        build=lambda cluster, asn: construct_close_cluster_set(
            cluster,
            asn,
            graph,
            clusters_in_as=lambda asn: [0] if asn == 7 else [],
            lat=lambda a, b: 10.0,
            loss=lambda a, b: 0.0,
            config=ASAPConfig(k_hops=1),
        ),
    )


class TestSurrogate:
    def test_close_set_cached(self):
        surrogate = make_surrogate()
        assert surrogate.close_set() is surrogate.close_set()

    def test_serve_counts_requests(self):
        surrogate = make_surrogate()
        surrogate.serve_close_set()
        surrogate.serve_close_set()
        assert surrogate.close_set_requests == 2

    def test_maintenance_messages_zero_before_build(self):
        surrogate = make_surrogate()
        assert surrogate.maintenance_messages == 0
        surrogate.close_set()
        assert surrogate.maintenance_messages >= 0


class TestEndHost:
    """The end host's side of a join is ``run_join`` over a runtime port.
    Its bootstrap ladder — falling through a dead bootstrap, failing once
    every one is down — is ``tests/test_runtime_faults.py::TestJoinFaults``."""

    def test_join_picks_bootstrap_by_ip_hash(self, scenario):
        runtime = ASAPRuntime(scenario)
        fleet = runtime.bootstrap_hosts
        host = scenario.population.hosts[0]
        port = _SimPort(runtime, host)
        for attempt in range(4):
            expected = fleet[(host.ip.value + attempt) % len(fleet)]
            assert port.bootstrap(attempt).host is expected
        record = runtime.schedule_join(host.ip)
        runtime.run()
        assert (record.outcome, record.attempts) == ("completed", 1)

    def test_publish_requires_join(self, scenario):
        runtime = ASAPRuntime(scenario)
        for bootstrap in runtime.bootstrap_hosts:
            runtime.network.set_host_down(bootstrap.ip)
        host = scenario.population.hosts[0]
        record = runtime.schedule_join(host.ip)
        runtime.run()
        assert record.outcome == "failed"
        surrogate = runtime.system.surrogate(runtime.system.cluster_of_ip(host.ip))
        assert host.ip not in surrogate.published_info

    def test_publish_after_join(self, scenario):
        runtime = ASAPRuntime(scenario)
        host = scenario.population.hosts[0]
        record = runtime.schedule_join(host.ip)
        runtime.run()
        assert record.outcome == "completed"
        system = runtime.system
        surrogate = system.surrogate(system.cluster_of_ip(host.ip), requester=host.ip)
        assert host.ip in surrogate.published_info
