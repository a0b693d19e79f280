"""Unit tests for Bootstrap, Surrogate and EndHost node classes."""

import pytest

from repro.bgp import ASGraph, PrefixOriginTable
from repro.core import construct_close_cluster_set
from repro.core.bootstrap import Bootstrap
from repro.core.config import ASAPConfig
from repro.core.endhost import EndHost
from repro.core.surrogate import Surrogate
from repro.errors import ProtocolError
from repro.netaddr import IPv4Address, IPv4Prefix
from repro.topology.population import Host, NodalInfo


PFX = IPv4Prefix.from_string("10.0.0.0/24")
SURR_IP = IPv4Address.from_string("10.0.0.5")


def make_host(ip="10.0.0.9", asn=7, bandwidth=500.0):
    return Host(
        ip=IPv4Address.from_string(ip),
        asn=asn,
        prefix=PFX,
        access_delay_ms=3.0,
        info=NodalInfo(bandwidth_kbps=bandwidth, uptime_hours=10.0, cpu_score=2.0),
    )


def make_bootstrap(with_surrogate=True):
    table = PrefixOriginTable()
    table.add(PFX, 7)
    graph = ASGraph()
    graph.add_as(7)
    surrogates = {PFX: SURR_IP} if with_surrogate else {}
    return Bootstrap(name="b0", prefix_table=table, graph=graph, surrogate_of=surrogates)


class TestBootstrap:
    def test_join_resolves_prefix_and_surrogate(self):
        bootstrap = make_bootstrap()
        info = bootstrap.join(IPv4Address.from_string("10.0.0.77"))
        assert info.asn == 7
        assert info.prefix == PFX
        assert info.surrogate_ip == SURR_IP
        assert bootstrap.join_requests == 1
        assert bootstrap.messages == 2

    def test_join_unrouted_ip_rejected(self):
        bootstrap = make_bootstrap()
        with pytest.raises(ProtocolError):
            bootstrap.join(IPv4Address.from_string("203.0.113.1"))

    def test_join_without_surrogate_rejected(self):
        bootstrap = make_bootstrap(with_surrogate=False)
        with pytest.raises(ProtocolError):
            bootstrap.join(IPv4Address.from_string("10.0.0.77"))

    def test_register_surrogate(self):
        bootstrap = make_bootstrap(with_surrogate=False)
        bootstrap.register_surrogate(PFX, SURR_IP)
        assert bootstrap.surrogate_for(PFX) == SURR_IP

    def test_disseminate_graph_counts_message(self):
        bootstrap = make_bootstrap()
        graph = bootstrap.disseminate_graph()
        assert 7 in graph
        assert bootstrap.messages == 1


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

    def test_refresh_rebuilds(self):
        surrogate = make_surrogate()
        first = surrogate.close_set()
        assert surrogate.refresh() is not first

    def test_nodal_info_and_handoff(self):
        surrogate = make_surrogate(host=make_host("10.0.0.5", bandwidth=100.0))
        weak = make_host("10.0.0.10", bandwidth=10.0)
        strong = make_host("10.0.0.11", bandwidth=10_000.0)
        surrogate.accept_nodal_info(weak.ip, weak.info)
        assert surrogate.recommend_handoff() is None or surrogate.recommend_handoff() != weak.ip
        surrogate.accept_nodal_info(strong.ip, strong.info)
        assert surrogate.recommend_handoff() == strong.ip

    def test_no_handoff_when_strongest(self):
        surrogate = make_surrogate(host=make_host("10.0.0.5", bandwidth=10**6))
        weak = make_host("10.0.0.10", bandwidth=1.0)
        surrogate.accept_nodal_info(weak.ip, weak.info)
        assert surrogate.recommend_handoff() is None

    def test_maintenance_messages_zero_before_build(self):
        surrogate = make_surrogate()
        assert surrogate.maintenance_messages == 0
        surrogate.close_set()
        assert surrogate.maintenance_messages >= 0


class TestEndHost:
    def test_join_picks_bootstrap_by_ip_hash(self):
        bootstraps = [make_bootstrap(), make_bootstrap()]
        endhost = EndHost(host=make_host("10.0.0.9"))
        info = endhost.join(bootstraps)
        assert info.prefix == PFX
        assert endhost.joined
        assert endhost.messages == 2
        assert sum(b.join_requests for b in bootstraps) == 1

    def test_join_falls_through_failing_bootstraps(self):
        broken = make_bootstrap(with_surrogate=False)
        working = make_bootstrap()
        endhost = EndHost(host=make_host("10.0.0.8"))  # .8 % 2 picks index 0
        info = endhost.join([broken, working])
        assert info.surrogate_ip == SURR_IP
        assert endhost.messages == 2 * 2  # two attempts

    def test_join_no_bootstraps(self):
        endhost = EndHost(host=make_host())
        with pytest.raises(ProtocolError):
            endhost.join([])

    def test_join_all_fail(self):
        endhost = EndHost(host=make_host())
        with pytest.raises(ProtocolError):
            endhost.join([make_bootstrap(with_surrogate=False)])

    def test_publish_requires_join(self):
        endhost = EndHost(host=make_host())
        with pytest.raises(ProtocolError):
            endhost.publish_nodal_info(make_surrogate())

    def test_publish_after_join(self):
        endhost = EndHost(host=make_host("10.0.0.9"))
        endhost.join([make_bootstrap()])
        surrogate = make_surrogate()
        endhost.publish_nodal_info(surrogate)
        assert endhost.ip in surrogate.published_info
