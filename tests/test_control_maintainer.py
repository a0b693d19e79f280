"""Incremental close-set repair: parity-exact against the fresh builder.

The core property under test: after ``drain()``, every tracked set's
``entries`` equals what :func:`construct_close_cluster_set` builds from
scratch on the same membership — for any seeded interleaving of join
and leave events, with drains at arbitrary points.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp import ASGraph
from repro.control import ClusterMembership, CloseSetMaintainer, MembershipEvent
from repro.control.maintainer import EVENT_KINDS
from repro.core import ASAPConfig
from repro.core.protocol import ASAPSystem
from repro.errors import ProtocolError
from repro.scenario import tiny_scenario
from repro.worldarrays import FlatCloseSetBuilder
from tests.oracles import assert_arrays_are_the_set, construct_close_cluster_set


def diamond():
    """1-peer-2 core; 3, 4 customers; 5 multihomed below both."""
    g = ASGraph()
    g.add_peer(1, 2)
    g.add_provider_customer(1, 3)
    g.add_provider_customer(2, 4)
    g.add_provider_customer(3, 5)
    g.add_provider_customer(4, 5)
    return g


def chain():
    """1 -> 3 -> 5: AS 1 reachable from 5 only through AS 3."""
    g = ASGraph()
    g.add_provider_customer(1, 3)
    g.add_provider_customer(3, 5)
    return g


class ArrayView:
    """The row read the builder probes through, over a symmetric
    ``lat_map`` (unlisted pairs never answer; answered probes lose 0)."""

    def __init__(self, lat_map, count):
        self.count = count
        self.rtt_ms = np.full((count, count), np.inf)
        for (a, b), rtt in lat_map.items():
            self.rtt_ms[a, b] = self.rtt_ms[b, a] = rtt
        self.loss = np.zeros((count, count))

    def rows(self, sources):
        return self.rtt_ms[sources], self.loss[sources]


def make_maintainer(graph, lat_map, clusters_map, asn_of, counts, config=None):
    def lat(own, other):
        return lat_map.get((own, other), lat_map.get((other, own)))

    def loss(own, other):
        return 0.0 if lat(own, other) is not None else None

    membership = ClusterMembership(counts)
    config = config if config is not None else ASAPConfig()
    builder = FlatCloseSetBuilder(
        graph,
        ArrayView(lat_map, max(asn_of) + 1),
        clusters_map,
        k_hops=config.k_hops,
        lat_threshold_ms=config.lat_threshold_ms,
        valley_free=config.valley_free,
    )
    maintainer = CloseSetMaintainer(
        builder=builder,
        membership=membership,
        asn_of_cluster=lambda c: asn_of[c],
    )

    def reference(owner):
        """Fig. 9 from scratch on the maintainer's current membership."""
        return construct_close_cluster_set(
            owner,
            asn_of[owner],
            graph,
            lambda asn: [
                c for c in clusters_map.get(asn, []) if membership.is_online(c)
            ],
            lat,
            loss,
            config,
        )

    maintainer.reference = reference
    return maintainer, lat, loss


def fresh_entries(maintainer, owner):
    return dict(maintainer.reference(owner).entries)


def assert_parity(maintainer):
    for owner in maintainer.tracked:
        assert maintainer.current(owner).entries == fresh_entries(maintainer, owner)
        assert_arrays_are_the_set(maintainer.current(owner))  # patched or rebuilt
        assert maintainer.staleness(owner) == 0.0


class TestClusterMembership:
    def test_only_zero_one_transitions_reported(self):
        membership = ClusterMembership({0: 1})
        up = MembershipEvent(at_ms=0.0, kind="host-join", cluster=0)
        down = MembershipEvent(at_ms=1.0, kind="host-leave", cluster=0)
        assert membership.apply(up) is None          # 1 -> 2
        assert membership.apply(down) is None        # 2 -> 1
        assert membership.apply(down) == "offline"   # 1 -> 0
        assert membership.apply(up) == "online"      # 0 -> 1

    def test_unknown_event_kind_rejected(self):
        with pytest.raises(ProtocolError):
            MembershipEvent(at_ms=0.0, kind="host-reboot", cluster=0)


class TestRepairPaths:
    def _small_world(self):
        # Own AS 5 has cluster 0; AS 3 holds clusters 1 (close) and
        # 6 (too far); AS 1 (behind 3) holds cluster 2 (close).
        # Cluster 9 lives in AS 99, which is not in the graph at all.
        lat_map = {(0, 1): 50.0, (0, 6): 500.0, (0, 2): 60.0}
        clusters = {5: [0], 3: [1, 6], 1: [2], 99: [9]}
        asn_of = {0: 5, 1: 3, 6: 3, 2: 1, 9: 99}
        counts = {0: 2, 1: 1, 6: 1, 2: 1, 9: 0}
        return make_maintainer(
            chain(), lat_map, clusters, asn_of, counts, ASAPConfig(k_hops=2)
        )

    def test_local_patch_when_verdict_unchanged(self):
        maintainer, _, _ = self._small_world()
        maintainer.track(0)
        assert set(maintainer.current(0).entries) == {0, 1, 2}
        # Cluster 2 leaves: AS 1's verdict may flip but it sits at the
        # hop limit (depth == k_hops) where it never expands — patch.
        maintainer.enqueue(MembershipEvent(at_ms=1.0, kind="host-leave", cluster=2))
        maintainer.drain()
        assert maintainer.rebuilds == 0
        assert maintainer.local_repairs == 1
        assert set(maintainer.current(0).entries) == {0, 1}
        assert_parity(maintainer)

    def test_verdict_flip_triggers_rebuild(self):
        maintainer, _, _ = self._small_world()
        maintainer.track(0)
        # Cluster 1 (AS 3's only passing probe) leaves: AS 3's verdict
        # flips True -> False at depth 1 < k_hops — downstream AS 1
        # becomes unreachable, only a rebuild can know that.
        maintainer.enqueue(MembershipEvent(at_ms=1.0, kind="host-leave", cluster=1))
        maintainer.drain()
        assert maintainer.rebuilds == 1
        assert set(maintainer.current(0).entries) == {0}
        assert_parity(maintainer)
        # And back: the verdict flips again, rebuilding restores reach.
        maintainer.enqueue(MembershipEvent(at_ms=2.0, kind="host-join", cluster=1))
        maintainer.drain()
        assert maintainer.rebuilds == 2
        assert set(maintainer.current(0).entries) == {0, 1, 2}
        assert_parity(maintainer)

    def test_unvisited_as_is_a_noop(self):
        maintainer, _, _ = self._small_world()
        maintainer.track(0)
        before = dict(maintainer.current(0).entries)
        # Cluster 9's AS 99 is never visited by the BFS.
        maintainer.enqueue(MembershipEvent(at_ms=1.0, kind="host-join", cluster=9))
        maintainer.drain()
        assert maintainer.current(0).entries == before
        assert maintainer.noops >= 1

    def test_owner_goes_dark_and_returns(self):
        maintainer, _, _ = self._small_world()
        maintainer.membership._counts[0] = 1  # single host in the owner
        maintainer.track(0)
        maintainer.enqueue(MembershipEvent(at_ms=1.0, kind="host-leave", cluster=0))
        maintainer.drain()
        assert maintainer.tracked == []
        with pytest.raises(ProtocolError):
            maintainer.current(0)
        maintainer.enqueue(MembershipEvent(at_ms=2.0, kind="host-join", cluster=0))
        maintainer.drain()
        assert maintainer.tracked == [0]
        assert_parity(maintainer)

    def test_tracking_an_offline_cluster_raises(self):
        maintainer, _, _ = self._small_world()
        maintainer.membership._counts[1] = 0
        with pytest.raises(ProtocolError):
            maintainer.track(1)


class TestFrontierOnlyLevels:
    """The builder expands only the (AS, phase) states the previous level
    discovered; an AS seen before can still contribute a new state."""

    def _world(self, rtt_to_40, k_hops):
        # 20 is a provider of both the own AS 10 and of 40, so (40, DOWN)
        # is found at depth 2, where AS 40 is probed.  The provider chain
        # 10 → 11 → 12 → 40 re-reaches it as (40, UP) at depth 3.  40's
        # provider 50 and peer 60 can be entered only from (40, UP); its
        # customer 70 only through 40 at all.
        g = ASGraph()
        g.add_provider_customer(20, 10)
        g.add_provider_customer(20, 40)
        g.add_provider_customer(11, 10)
        g.add_provider_customer(12, 11)
        g.add_provider_customer(40, 12)
        g.add_provider_customer(50, 40)
        g.add_peer(40, 60)
        g.add_provider_customer(40, 70)
        lat_map = {(0, 1): rtt_to_40, (0, 2): 60.0, (0, 3): 70.0, (0, 4): 80.0}
        clusters = {10: [0], 40: [1], 50: [2], 60: [3], 70: [4]}
        asn_of = {0: 10, 1: 40, 2: 50, 3: 60, 4: 70}
        maintainer, _, _ = make_maintainer(
            g, lat_map, clusters, asn_of, {c: 1 for c in asn_of}, ASAPConfig(k_hops=k_hops)
        )
        built = maintainer.track(0)
        assert_parity(maintainer)
        return built, maintainer._tracked[0][1]

    def test_as_seen_down_then_up_climbs_and_crosses_a_level_later(self):
        built, meta = self._world(rtt_to_40=50.0, k_hops=4)
        assert meta[40] == (2, True)  # probed once, when first seen
        assert meta[70] == (3, True)  # from (40, DOWN)
        assert meta[50] == (4, True) and meta[60] == (4, True)  # from (40, UP)
        assert set(built.entries) == {0, 1, 2, 3, 4}
        # One hop short, (40, UP) is discovered but never expanded.
        built, meta = self._world(rtt_to_40=50.0, k_hops=3)
        assert set(built.entries) == {0, 1, 4} and 50 not in meta and 60 not in meta

    def test_failed_as_blocks_both_of_its_phase_states(self):
        built, meta = self._world(rtt_to_40=900.0, k_hops=6)
        assert meta[40] == (2, False)
        assert set(built.entries) == {0}
        assert not {50, 60, 70} & set(meta)


def diamond_world():
    # Diamond with clusters spread over every AS; a mix of passing
    # and failing probes so verdicts actually flip under churn.
    lat_map = {
        (0, 1): 50.0, (0, 2): 120.0, (0, 3): 500.0,
        (0, 4): 90.0, (0, 5): 150.0, (0, 6): 700.0,
    }
    clusters = {5: [0], 3: [1, 3], 4: [2], 1: [4, 6], 2: [5]}
    asn_of = {0: 5, 1: 3, 3: 3, 2: 4, 4: 1, 6: 1, 5: 2}
    counts = {c: 2 for c in asn_of}
    return make_maintainer(
        diamond(), lat_map, clusters, asn_of, counts, ASAPConfig(k_hops=3)
    )


class TestRandomizedParity:
    """The acceptance property: incremental == from-scratch, any order."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 7, 19])
    def test_seeded_event_interleavings(self, seed):
        maintainer, _, _ = diamond_world()
        maintainer.track(0)
        rng = random.Random(seed)
        clusters = [1, 2, 3, 4, 5, 6]
        for step in range(300):
            cluster = rng.choice(clusters)
            kind = rng.choice(("host-join", "host-leave"))
            maintainer.enqueue(
                MembershipEvent(at_ms=float(step), kind=kind, cluster=cluster)
            )
            if rng.random() < 0.15:  # drain mid-stream at random points
                maintainer.drain()
                assert_parity(maintainer)
        maintainer.drain()
        assert_parity(maintainer)
        assert maintainer.events_seen == 300

    def test_repair_log_is_byte_stable(self):
        def run():
            maintainer, _, _ = diamond_world()
            maintainer.track(0)
            rng = random.Random(5)
            for step in range(120):
                maintainer.enqueue(
                    MembershipEvent(
                        at_ms=float(step),
                        kind=rng.choice(("host-join", "host-leave")),
                        cluster=rng.choice([1, 2, 3, 4, 5, 6]),
                    )
                )
            maintainer.drain()
            return list(maintainer.repair_log)

        assert run() == run()


# -- repair == rebuild under generated churn on a real world --------------------


@pytest.fixture(scope="module")
def tiny_world():
    """The ``tiny`` world's system, its small clusters' hosts (the ones
    churn can take dark) and the cluster -> AS table."""
    scenario = tiny_scenario(seed=11)
    system = ASAPSystem(scenario)
    cluster_of = {host.ip: system.cluster_of_ip(host.ip) for host in scenario.population.hosts}
    sizes = system.online_sizes.tolist()
    return dict(
        system=system,
        pool=[ip for ip, cluster in cluster_of.items() if sizes[cluster] <= 3],
        cluster_of=cluster_of,
        asn_of=scenario.matrix_view().asn_of,
    )


class TestRepairEqualsRebuildUnderChurn:
    """After any drain, every tracked set equals a from-scratch build on
    the membership it has reached, whatever the host join/leave program,
    the tracked owners and the drain points."""

    @settings(max_examples=40, deadline=None)
    @given(
        owners=st.lists(st.integers(0, 45), min_size=2, max_size=5, unique=True),
        # (pool host, drain after it?): a host toggles — leaves if it is
        # online, rejoins if it left.
        program=st.lists(st.tuples(st.integers(0, 10**6), st.booleans()), max_size=60),
    )
    def test_repair_matches_rebuild(self, tiny_world, owners, program):
        world = tiny_world
        system, pool = world["system"], world["pool"]
        builder = system.close_set_builder
        maintainer = CloseSetMaintainer.from_system(system)
        maintainer.track_many(owners)
        gone = set()

        def check():
            online = maintainer.membership.online_mask(builder.cluster_count)
            assert maintainer.tracked == sorted(o for o in owners if online[o])
            for owner in maintainer.tracked:
                rebuilt = builder.build(owner, int(world["asn_of"][owner]), online=online)
                assert maintainer.current(owner).entries == rebuilt.entries
                assert_arrays_are_the_set(maintainer.current(owner))
                assert maintainer.staleness(owner) == 0.0

        for step, (pick, drain) in enumerate(program):
            ip = pool[pick % len(pool)]
            kind = "host-join" if ip in gone else "host-leave"
            gone.symmetric_difference_update({ip})
            maintainer.enqueue(
                MembershipEvent(at_ms=float(step), kind=kind, cluster=world["cluster_of"][ip])
            )
            if drain:
                maintainer.drain()
                check()
        maintainer.drain()
        check()
        assert maintainer.events_seen == len(program)

    # On ``tiny`` a flipped verdict seldom moves reachability (ASes are
    # reached along many paths), so the diamond, where it does, runs the
    # same property against the Fig. 9 reference.
    @settings(max_examples=60, deadline=None)
    @given(
        owners=st.lists(st.integers(0, 6), min_size=2, max_size=4, unique=True),
        program=st.lists(
            st.tuples(st.integers(0, 6), st.sampled_from(EVENT_KINDS), st.booleans()),
            max_size=80,
        ),
    )
    def test_repair_matches_rebuild_on_the_diamond(self, owners, program):
        maintainer, _, _ = diamond_world()
        maintainer.track_many(owners)
        for step, (cluster, kind, drain) in enumerate(program):
            maintainer.enqueue(MembershipEvent(at_ms=float(step), kind=kind, cluster=cluster))
            if drain:
                maintainer.drain()
                assert_parity(maintainer)
        maintainer.drain()
        assert_parity(maintainer)
        online = maintainer.membership.is_online
        assert maintainer.tracked == [owner for owner in sorted(owners) if online(owner)]
