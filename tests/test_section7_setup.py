"""Section-7 set-up pays only for what a round touches — and changes
nothing it returns.

Each property holds the on-demand form to the eager one kept in
``tests/oracles.py``: surrogate groups elected on first touch ≡ every
group elected up front; a graph's shared CSR export ≡ a fresh export;
streamed gathers ≡ dense reads; the DEDI / MIX fleet ≡ the ``sorted``
ranking; the world-static host table ≡ the per-host lookup loop.
"""

import dataclasses
import pickle
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import DEDIMethod
from repro.baselines.base import DEDICATED_COUNT, MIX_DEDICATED
from repro.bgp.csr import GraphCSR
from repro.bgp.routing import PolicyRouter
from repro.core import ASAPConfig, ASAPSystem
from repro.errors import ReproError, TopologyError
from repro.scenario import ScenarioConfig, build_scenario
from repro.storage.columns import ColumnStore
from repro.worldarrays.virtual import VirtualMatrices
from tests.oracles import (
    elect_every_group,
    reference_host_table,
    reference_top_degree_clusters,
)
from tests.test_properties import random_annotated_graph

#: Clusters of ``tiny`` seed 0; streamed chunk width over them (7
#: chunks, the last one short).
_TINY_CLUSTERS = 46
_CHUNK = 7


@pytest.fixture(scope="module")
def tiny():
    return build_scenario(ScenarioConfig.preset("tiny", 0))


# -- (i) surrogates elected on first touch --------------------------------------


def _apply(system, op):
    """One program step; its outcome as plain data (errors by type)."""
    hosts = system.scenario.population.hosts
    kind, args = op
    try:
        if kind == "join":
            return system.join(hosts[args % len(hosts)].ip).ip
        if kind in ("leave", "fail"):
            ip = hosts[args % len(hosts)].ip if kind == "leave" else system.surrogate(args).ip
            left = system.leave(ip)
            return None if left is None else left.ip
        pairs = [(hosts[a % len(hosts)].ip, hosts[b % len(hosts)].ip) for a, b in args]
        return [
            (
                s.caller_cluster,
                s.callee_cluster,
                s.direct_rtt_ms,
                s.relay_needed,
                s.best_relay_rtt_ms,
                s.messages,
                s.quality_paths,
            )
            for s in system.call_many(pairs)
        ]
    except ReproError as exc:
        return type(exc).__name__


def _groups(system):
    return {
        idx: [
            (m.ip, m.close_set_requests, m.has_close_set, m.maintenance_messages)
            for m in system.surrogate_group(idx)
        ]
        for idx in range(system.scenario.matrix_view().count)
    }


_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("join"), st.integers(0, 10**6)),
        st.tuples(st.just("leave"), st.integers(0, 10**6)),
        # A primary leaves; one past each end of the index range: both
        # must raise alike.
        st.tuples(st.just("fail"), st.integers(-1, _TINY_CLUSTERS)),
        st.tuples(
            st.just("call"),
            st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)), min_size=1,
                     max_size=4),
        ),
    ),
    max_size=20,
)


class TestElectionOnFirstTouch:
    @given(program=_OPS)
    @settings(max_examples=30, deadline=None)
    def test_equals_eager_election(self, tiny, program):
        config = ASAPConfig(hosts_per_surrogate=4)  # multi-member groups too
        lazy = ASAPSystem(tiny, config)
        eager = ASAPSystem(tiny, config)
        elect_every_group(eager)
        assert not lazy._surrogates
        for op in program:
            assert _apply(lazy, op) == _apply(eager, op), op
            assert lazy.maintenance_messages() == eager.maintenance_messages()
        assert len(lazy._surrogates) <= len(eager._surrogates)
        assert _groups(lazy) == _groups(eager)
        assert lazy.maintenance_messages() == eager.maintenance_messages()

    def test_construction_elects_nothing(self, tiny):
        assert tiny.matrix_view().count == _TINY_CLUSTERS
        system = ASAPSystem(tiny)
        assert not system._surrogates
        system.surrogate(3)
        assert list(system._surrogates) == [3]


# -- (ii) one CSR export per graph ------------------------------------------------


def _assert_csr_equal(a: GraphCSR, b: GraphCSR) -> None:
    for f in dataclasses.fields(GraphCSR):
        left, right = getattr(a, f.name), getattr(b, f.name)
        if isinstance(left, np.ndarray):
            assert left.dtype == right.dtype and np.array_equal(left, right), f.name
        else:
            assert left == right, f.name


_EDITS = st.lists(
    st.tuples(
        st.sampled_from(["as", "p2c", "peer", "sibling"]),
        st.integers(1, 16),
        st.integers(1, 16),
    ),
    min_size=1,
    max_size=6,
)


class TestSharedExport:
    @given(seed=st.integers(0, 10**4), edits=_EDITS)
    @settings(max_examples=60, deadline=None)
    def test_mutated_graph_reexports_like_a_fresh_build(self, seed, edits):
        graph = random_annotated_graph(seed)
        first = graph.csr()
        assert graph.csr() is first
        changed = False
        for kind, a, b in edits:
            try:
                if kind == "as":
                    graph.add_as(a)
                elif kind == "p2c":
                    graph.add_provider_customer(a, b)
                elif kind == "peer":
                    graph.add_peer(a, b)
                else:
                    graph.add_sibling(a, b)
                changed = True
            except TopologyError:
                pass
        again = graph.csr()
        assert again is not first or not changed
        _assert_csr_equal(again, GraphCSR.from_asgraph(graph.without(())))

    def test_export_is_no_part_of_the_graph(self):
        graph = random_annotated_graph(3)
        plain = pickle.dumps(graph)
        graph.csr()
        assert pickle.dumps(graph) == plain
        assert graph == pickle.loads(plain) and "_export" not in repr(graph)

    def test_routers_and_builders_share_it(self, tiny):
        graph = tiny.protocol_graph
        a, b = ASAPSystem(tiny), ASAPSystem(tiny)
        assert a.close_set_builder._csr is b.close_set_builder._csr is graph.csr()
        router = PolicyRouter(graph)
        next(router.trees(graph.ases()[:1]))
        assert router._csr is graph.csr()


# -- (iii) streamed gathers --------------------------------------------------------


@pytest.fixture(scope="module")
def streamed(tmp_path_factory):
    """``(dense, streamed)`` views of one ``tiny`` world, 7-column chunks."""
    dense = build_scenario(ScenarioConfig.preset("tiny", 0)).matrices
    scenario = build_scenario(ScenarioConfig.preset("tiny", 0))
    clusters = scenario.clusters.all_clusters()
    store = ColumnStore(
        tmp_path_factory.mktemp("gather"), key="tiny-0", n=len(clusters), chunk=_CHUNK
    )
    view = VirtualMatrices(scenario.latency, clusters, chunk_columns=_CHUNK, store=store)
    return dense, view


class TestStreamedGather:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_equals_dense_reads(self, streamed, data):
        dense, view = streamed
        n = view.count
        chunks = -(-n // _CHUNK)
        span = data.draw(st.integers(1, chunks), label="chunks spanned")
        first = data.draw(st.integers(0, chunks - span), label="first chunk")
        lo, hi = first * _CHUNK, min(n, (first + span) * _CHUNK)
        # One column in every spanned chunk, then extras anywhere in range.
        cols = [min(hi - 1, (first + k) * _CHUNK + data.draw(st.integers(0, _CHUNK - 1)))
                for k in range(span)]
        cols += data.draw(st.lists(st.integers(lo, hi - 1), max_size=30))
        cols = np.array(data.draw(st.permutations(cols)), dtype=np.int64)
        rows = np.array(
            data.draw(st.lists(st.integers(0, n - 1), min_size=len(cols), max_size=len(cols))),
            dtype=np.int64,
        )
        cases = [(rows, cols), (rows[:3, None], cols[None, :]), (rows[0], cols)]
        for r, c in cases:
            for got, want in (
                (view.gather_rtt(r, c), dense.gather_rtt(r, c)),
                (view.gather_loss(r, c), dense.gather_loss(r, c)),
            ):
                assert got.dtype == np.float64 and got.shape == np.shape(want)
                np.testing.assert_array_equal(got, want)

    def test_empty_input(self, streamed):
        dense, view = streamed
        empty = np.zeros(0, dtype=np.int64)
        for r, c in ((empty, empty), (empty[:, None], empty[None, :])):
            got, want = view.gather_rtt(r, c), dense.gather_rtt(r, c)
            assert got.shape == want.shape and got.dtype == np.float64
            assert view.gather_loss(r, c).shape == want.shape


# -- (iv) the DEDI / MIX fleet -------------------------------------------------------


class TestFleetRanking:
    @given(
        seed=st.integers(0, 10**4),
        asns=st.lists(st.integers(1, 20), max_size=40),
        size=st.integers(0, 45),
    )
    @settings(max_examples=80, deadline=None)
    def test_equals_sorted_reference(self, seed, asns, size):
        graph = random_annotated_graph(seed)  # ASNs 13-20 are not in it
        world = SimpleNamespace(asn_of=np.array(asns, dtype=np.int64), count=len(asns))
        fleet = DEDIMethod(graph, fleet_size=size).fleet_for(world)
        assert fleet == reference_top_degree_clusters(world, graph, size)

    def test_scenario_fleets(self, tiny):
        view = tiny.matrix_view()
        graph = tiny.topology.graph
        for size in (DEDICATED_COUNT, MIX_DEDICATED):
            fleet = DEDIMethod(graph, fleet_size=size).fleet_for(view)
            assert fleet == reference_top_degree_clusters(view, graph, size)


# -- (v) the world-static host table -----------------------------------------------


class TestHostTable:
    @given(picks=st.lists(st.integers(0, 10**6), max_size=60))
    @settings(max_examples=40, deadline=None)
    def test_equals_per_host_lookup(self, tiny, picks):
        everyone = tiny.population.hosts
        hosts = [everyone[p % len(everyone)] for p in picks]
        index_of = dict(tiny.matrix_view().index_of)  # a fresh table each time
        ips, clusters = tiny.clusters.host_table(hosts, index_of)
        want_ips, want_clusters = reference_host_table(tiny.clusters, hosts, index_of)
        assert ips == want_ips
        assert clusters.dtype == np.int64 and clusters.tolist() == want_clusters

    def test_built_once_per_world(self, tiny):
        hosts, index_of = tiny.population.hosts, tiny.matrix_view().index_of
        first = tiny.clusters.host_table(hosts, index_of)
        again = tiny.clusters.host_table(hosts, index_of)
        assert again[0] is first[0] and again[1] is first[1]
        assert first[1].tolist() == reference_host_table(tiny.clusters, hosts, index_of)[1]
        assert pickle.loads(pickle.dumps(tiny.clusters)) == tiny.clusters
        assert "_host_table" not in pickle.loads(pickle.dumps(tiny.clusters)).__dict__
