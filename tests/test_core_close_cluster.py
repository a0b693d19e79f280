"""Tests for construct-close-cluster-set (paper Fig. 9)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bgp import ASGraph
from repro.core import ASAPConfig
from repro.worldarrays.closesets import CloseClusterEntry, CloseClusterSet
from repro.errors import ProtocolError
from tests.oracles import assert_arrays_are_the_set, construct_close_cluster_set, rtt_to


def diamond():
    """1-peer-2 core; 3, 4 customers; 5 multihomed below both."""
    g = ASGraph()
    g.add_peer(1, 2)
    g.add_provider_customer(1, 3)
    g.add_provider_customer(2, 4)
    g.add_provider_customer(3, 5)
    g.add_provider_customer(4, 5)
    return g


def make_world(lat_map, clusters_map):
    """lat_map[(own, other)] = rtt; clusters_map[asn] = [cluster indices]."""

    def lat(own, other):
        return lat_map.get((own, other), lat_map.get((other, own)))

    def loss(own, other):
        return 0.0 if lat(own, other) is not None else None

    def clusters_in_as(asn):
        return clusters_map.get(asn, [])

    return lat, loss, clusters_in_as


class TestConstructCloseClusterSet:
    def test_own_cluster_always_included_at_zero(self):
        lat, loss, cin = make_world({}, {5: [0]})
        result = construct_close_cluster_set(0, 5, diamond(), cin, lat, loss)
        assert 0 in result
        assert result.entries[0].rtt_ms == 0.0
        assert result.entries[0].as_hops == 0

    def test_within_threshold_included(self):
        lat, loss, cin = make_world({(0, 1): 100.0}, {5: [0], 3: [1]})
        result = construct_close_cluster_set(0, 5, diamond(), cin, lat, loss)
        assert 1 in result
        assert result.entries[1].rtt_ms == 100.0
        assert result.entries[1].as_hops == 1

    def test_beyond_lat_threshold_excluded(self):
        lat, loss, cin = make_world({(0, 1): 400.0}, {5: [0], 3: [1]})
        result = construct_close_cluster_set(0, 5, diamond(), cin, lat, loss)
        assert 1 not in result

    def test_loss_threshold_excludes(self):
        def lat(own, other):
            return 50.0

        def lossy(own, other):
            return 0.5

        cin = lambda asn: {5: [0], 3: [1]}.get(asn, [])
        result = construct_close_cluster_set(0, 5, diamond(), cin, lat, lossy)
        assert 1 not in result

    def test_expansion_pruned_at_failing_cluster(self):
        # Cluster in AS 3 fails the threshold → BFS must not expand
        # through AS 3 to reach AS 1's cluster.
        lat_map = {(0, 1): 500.0, (0, 2): 50.0}
        lat, loss, cin = make_world(lat_map, {5: [0], 3: [1], 1: [2]})
        result = construct_close_cluster_set(
            0, 5, diamond(), cin, lat, loss, ASAPConfig(k_hops=4)
        )
        assert 1 not in result
        # AS 1 is reachable ONLY via AS 3 or AS 4 — AS 4 has no clusters
        # so expansion continues there: 5 → 4 → ... but 4's phase is UP;
        # 4 → 1 climbs? 4's provider is 2, and 2 peers 1.  5-4-2-1 is
        # valley-free, 3 hops, so AS 1's cluster is still found via the
        # transit side.
        assert 2 in result

    def test_k_zero_only_own_as(self):
        lat, loss, cin = make_world({(0, 1): 10.0}, {5: [0], 3: [1]})
        result = construct_close_cluster_set(
            0, 5, diamond(), cin, lat, loss, ASAPConfig(k_hops=0)
        )
        assert 1 not in result
        assert 0 in result

    def test_colocated_cluster_measured_at_depth_zero(self):
        lat, loss, cin = make_world({(0, 7): 5.0}, {5: [0, 7]})
        result = construct_close_cluster_set(0, 5, diamond(), cin, lat, loss)
        assert 7 in result
        assert result.entries[7].as_hops == 0

    def test_probe_messages_counted(self):
        lat, loss, cin = make_world(
            {(0, 1): 10.0, (0, 2): 10.0}, {5: [0], 3: [1], 1: [2]}
        )
        result = construct_close_cluster_set(0, 5, diamond(), cin, lat, loss)
        # Two clusters probed → 4 messages (2 each).
        assert result.probe_messages == 4

    def test_unanswered_probe_skipped(self):
        lat, loss, cin = make_world({}, {5: [0], 3: [1]})  # no lat data → None
        result = construct_close_cluster_set(0, 5, diamond(), cin, lat, loss)
        assert 1 not in result

    def test_unknown_own_as_gives_empty_set(self):
        lat, loss, cin = make_world({}, {})
        result = construct_close_cluster_set(0, 99, diamond(), cin, lat, loss)
        assert len(result) == 0

    def test_valley_free_constraint_limits_reach(self):
        # From AS 3 (customer of 1): valley-free forbids 3→5→4 (valley).
        # With the constraint off, AS 4's cluster becomes reachable in 2.
        lat_map = {(0, 1): 10.0, (0, 2): 10.0, (0, 3): 10.0}
        clusters = {3: [0], 5: [1], 4: [2], 1: [3]}
        lat, loss, cin = make_world(lat_map, clusters)
        constrained = construct_close_cluster_set(
            0, 3, diamond(), cin, lat, loss, ASAPConfig(k_hops=2)
        )
        unconstrained = construct_close_cluster_set(
            0, 3, diamond(), cin, lat, loss, ASAPConfig(k_hops=2, valley_free=False)
        )
        assert 2 not in constrained
        assert 2 in unconstrained

    def test_rtt_to_missing_raises(self):
        cs = CloseClusterSet(owner=0)
        with pytest.raises(ProtocolError):
            rtt_to(cs, 3)

    def test_clusters_sorted(self):
        lat, loss, cin = make_world(
            {(0, 1): 10.0, (0, 2): 10.0}, {5: [0], 3: [2], 1: [1]}
        )
        result = construct_close_cluster_set(0, 5, diamond(), cin, lat, loss)
        assert result.clusters() == sorted(result.clusters())


class TestRows:
    """The stored arrays stay the sorted image of the model under mutation."""

    OPS = st.lists(
        st.tuples(
            st.sampled_from(["add", "discard"]),
            st.integers(0, 7),
            st.floats(0.0, 500.0, allow_nan=False),
        ),
        max_size=40,
    )

    @given(OPS)
    def test_add_discard_interleavings(self, ops):
        cs = CloseClusterSet(owner=0)
        model = {}
        for op, cluster, rtt in ops:
            handed_out = tuple(a.copy() for a in cs.rows()), cs.rows()
            if op == "add":
                cs.add(CloseClusterEntry(cluster, rtt, 0.5, 2))
                model.setdefault(cluster, rtt)  # a member keeps its entry
            else:
                cs.discard(cluster)             # absent: no-op
                model.pop(cluster, None)
            assert_arrays_are_the_set(cs)
            assert cs.entries == {
                c: CloseClusterEntry(c, r, 0.5, 2) for c, r in sorted(model.items())
            }
            assert cs.clusters() == sorted(model) and len(cs) == len(model)
            assert all(c in cs and rtt_to(cs, c) == model[c] for c in model)
            assert not any(c in cs for c in range(8) if c not in model)
            # Arrays handed out earlier are snapshots: never written into.
            for before, held in zip(*handed_out):
                assert np.array_equal(before, held)

    def test_constructor_rejects_unsorted_or_ragged_arrays(self):
        with pytest.raises(ProtocolError):
            CloseClusterSet(0, [2, 1], [1.0, 2.0], [0.0, 0.0], [0, 0])
        with pytest.raises(ProtocolError):
            CloseClusterSet(0, [1, 1], [1.0, 2.0], [0.0, 0.0], [0, 0])
        with pytest.raises(ProtocolError):
            CloseClusterSet(0, [1, 2], [1.0], [0.0, 0.0], [0, 0])
        with pytest.raises(ProtocolError):  # ids index select-close-relay's leg table
            CloseClusterSet(0, [-1, 2], [1.0, 2.0], [0.0, 0.0], [0, 0])

    def test_equality_compares_members_and_values(self):
        def build(rtt):
            return CloseClusterSet(0, [1, 4], [rtt, 2.0], [0.0, 0.1], [1, 2], probe_messages=4)

        assert build(1.0) == build(1.0)
        assert build(1.0) != build(1.5)
        shorter = build(1.0)
        shorter.discard(4)
        assert shorter != build(1.0)

    def test_drift_counts_changed_members_on_both_sides(self):
        stale = CloseClusterSet(0, [1, 2, 3], [1.0, 2.0, 3.0], [0.0] * 3, [1] * 3)
        fresh = CloseClusterSet(0, [2, 3, 4, 5], [2.0, 3.5, 4.0, 5.0], [0.0] * 4, [1] * 4)
        # 1 left, 4 and 5 arrived, 3 changed value (both sides): 5 of |fresh| = 4.
        assert stale.drift_from(fresh) == 5 / 4
        assert fresh.drift_from(fresh) == 0.0
        assert stale.drift_from(CloseClusterSet(owner=0)) == 3.0  # max(1, 0)
