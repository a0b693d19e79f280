"""Tests for select-close-relay (paper Fig. 10)."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ASAPConfig, ASAPSystem, select_close_relay
from repro.worldarrays.closesets import CloseClusterEntry, CloseClusterSet
from repro.core.config import derive_k_hops
from repro.core.relay_selection import SelectionBatch, ranked_relay_clusters
from repro.scenario import small_scenario
from tests.oracles import scalar_select_close_relay, snapshot


def close_set(owner, rtts):
    """Build a CloseClusterSet from {cluster: rtt}."""
    cs = CloseClusterSet(owner=owner)
    for cluster, rtt in rtts.items():
        cs.add(CloseClusterEntry(cluster, rtt, 0.0, 1))
    return cs


def sizes(mapping, clusters=64):
    """Online host counts of ``clusters`` clusters: 1 unless ``mapping``
    says otherwise."""
    return np.array([mapping.get(idx, 1) for idx in range(clusters)])


def no_two_hop(idx):
    raise AssertionError("two-hop expansion should not run")


class TestOneHop:
    def test_intersection_with_threshold(self):
        s1 = close_set(0, {10: 100.0, 11: 100.0, 12: 280.0})
        s2 = close_set(1, {10: 100.0, 12: 100.0, 13: 50.0})
        config = ASAPConfig(size_threshold=0)  # no two-hop
        result = select_close_relay(s1, s2, sizes({10: 5, 12: 3}), no_two_hop, config)
        clusters = set(result.one_hop["cluster"].tolist())
        # 10: 100+100+40=240 ✓; 12: 280+100+40=420 ✗; 11/13 not common.
        assert clusters == {10}
        assert result.one_hop_ips == 5
        assert result.quality_paths == 5

    def test_two_messages_for_one_hop(self):
        s1 = close_set(0, {10: 100.0})
        s2 = close_set(1, {10: 100.0})
        result = select_close_relay(
            s1, s2, sizes({10: 400}), no_two_hop, ASAPConfig(size_threshold=300)
        )
        assert result.messages == 2
        assert result.two_hop_queries == 0

    def test_relay_rtt_computation(self):
        s1 = close_set(0, {10: 120.0})
        s2 = close_set(1, {10: 90.0})
        result = select_close_relay(
            s1, s2, sizes({}), no_two_hop, ASAPConfig(size_threshold=0)
        )
        assert result.one_hop[0]["rtt_ms"] == pytest.approx(120.0 + 90.0 + 40.0)

    def test_empty_intersection_no_one_hop(self):
        s1 = close_set(0, {10: 100.0})
        s2 = close_set(1, {11: 100.0})
        result = select_close_relay(
            s1, s2, sizes({}), lambda idx: close_set(idx, {}), ASAPConfig()
        )
        assert len(result.one_hop) == 0
        assert result.best_rtt_ms() is None


class TestTwoHop:
    def test_two_hop_triggered_below_size_threshold(self):
        s1 = close_set(0, {10: 80.0})
        s2 = close_set(1, {10: 80.0, 20: 60.0})
        fetched = []

        def close_of(idx):
            fetched.append(idx)
            return close_set(idx, {20: 50.0})

        config = ASAPConfig(size_threshold=100)
        result = select_close_relay(s1, s2, sizes({10: 2, 20: 3}), close_of, config)
        assert fetched == [10]
        assert result.two_hop_queries == 1
        assert result.messages == 4  # 2 + 2 per query
        # Path 0 -10- 20 -1: 80 + 50 + 60 + 80 = 270 < 300.
        assert len(result.two_hop) == 1
        assert result.two_hop[0]["rtt_ms"] == pytest.approx(270.0)
        assert result.two_hop_pairs == 2 * 3
        assert result.quality_paths == 2 + 6

    def test_two_hop_skipped_when_enough_one_hop(self):
        s1 = close_set(0, {10: 80.0})
        s2 = close_set(1, {10: 80.0})
        result = select_close_relay(
            s1, s2, sizes({10: 500}), no_two_hop, ASAPConfig(size_threshold=300)
        )
        assert len(result.two_hop) == 0

    def test_two_hop_requires_r2_in_s2(self):
        s1 = close_set(0, {10: 80.0})
        s2 = close_set(1, {10: 80.0})

        def close_of(idx):
            return close_set(idx, {30: 10.0})  # 30 not in S2

        result = select_close_relay(s1, s2, sizes({10: 1}), close_of, ASAPConfig())
        assert len(result.two_hop) == 0

    def test_two_hop_threshold_applies(self):
        s1 = close_set(0, {10: 150.0})
        s2 = close_set(1, {10: 150.0, 20: 100.0})

        def close_of(idx):
            return close_set(idx, {20: 100.0})

        # 150 + 100 + 100 + 80 = 430 > 300 → rejected.
        result = select_close_relay(s1, s2, sizes({}), close_of, ASAPConfig())
        assert len(result.two_hop) == 0

    def test_r1_equals_r2_skipped(self):
        s1 = close_set(0, {10: 50.0})
        s2 = close_set(1, {10: 50.0})

        def close_of(idx):
            return close_set(idx, {10: 0.0})

        result = select_close_relay(s1, s2, sizes({10: 1}), close_of, ASAPConfig())
        assert not np.any(result.two_hop["first"] == result.two_hop["second"])

    def test_best_rtt_over_both_sets(self):
        s1 = close_set(0, {10: 100.0})
        s2 = close_set(1, {10: 100.0, 20: 50.0})

        def close_of(idx):
            return close_set(idx, {20: 40.0})

        result = select_close_relay(
            s1, s2, sizes({10: 1, 20: 1}), close_of, ASAPConfig(size_threshold=300)
        )
        one_hop_rtt = 100.0 + 100.0 + 40.0      # 240
        two_hop_rtt = 100.0 + 40.0 + 50.0 + 80  # 270
        assert result.best_rtt_ms() == pytest.approx(min(one_hop_rtt, two_hop_rtt))


# -- array selection ≡ the scalar specification -----------------------------

# An eight-cluster universe so the sets overlap.  Hypothesis draws the
# shape (how full each set is, the thresholds) and a seed; RTTs come from
# the seeded generator because they need full-width mantissas for a
# reordered sum to show, and hypothesis prefers round floats.  They put
# one-hop sums (≤ 340 with the relay delay) and two-hop sums (≤ 530) on
# both sides of latT = 300.
UNIVERSE = range(8)
FILL = st.sampled_from([0.0, 0.5, 0.9])  # 0.0: an empty set
#: "one": a single-member set.
SPARSE_FILL = st.sampled_from([0.0, "one", 0.5, 0.9])


def draw_config(draw):
    return ASAPConfig(size_threshold=draw(st.sampled_from([0, 3, 10**9])))


@st.composite
def selection_worlds(draw):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))

    def rtt_map(fill):
        return {c: rng.uniform(0.0, 150.0) for c in UNIVERSE if rng.random() < fill}

    s1, s2 = rtt_map(draw(FILL)), rtt_map(draw(FILL))
    # A first hop without a fetched set answers empty; a fetched set may
    # be empty itself or hold its own owner (r2 == r1).
    answered, fill = draw(FILL), draw(FILL)
    fetched = {c: rtt_map(fill) for c in UNIVERSE if rng.random() < answered}
    sizes_of = np.array([rng.choice((0, 1, 1, 2, 4)) for _ in UNIVERSE])  # 0: churned dark
    return s1, s2, fetched, sizes_of, draw_config(draw)


@st.composite
def sparse_selection_worlds(draw):
    """Fourteen ids out of a few thousand, so S2's leg table is mostly
    +inf: S1 reaches past S2's largest member, the fetched sets hold ids
    past both, and any set may be empty or hold a single member."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    ids = sorted(rng.sample(range(4000), 14))
    shared, s1_top = ids[:10], ids[10:12]

    def rtt_map(pool, fill):
        chosen = [rng.choice(pool)] if fill == "one" else [c for c in pool if rng.random() < fill]
        return {c: rng.uniform(0.0, 150.0) for c in chosen}

    s2 = rtt_map(shared, draw(SPARSE_FILL))
    s1 = rtt_map(shared, draw(SPARSE_FILL))
    if s1:
        s1.update(rtt_map(s1_top, "one"))
    answered, fill = draw(FILL), draw(SPARSE_FILL)
    fetched = {c: rtt_map(ids, fill) for c in ids if rng.random() < answered}
    sizes_of = np.ones(4000, dtype=np.int64)
    sizes_of[ids] = [rng.choice((0, 1, 1, 2, 4)) for _ in ids]
    return s1, s2, fetched, sizes_of, draw_config(draw)


def stepwise_select(s1, s2, cluster_size, close_set_of, config):
    """Fig. 10 the way a host on a network runs it: the one-hop step (a
    batch of one), a fetch of the sets it names, the two-hop step.  A
    set that never arrives (``close_set_of`` answers None) is left out
    of the mapping."""
    batch = SelectionBatch([(s1, s2)], cluster_size, config)
    (selection,) = batch.selections
    assert (selection.messages, selection.two_hop_queries, len(selection.two_hop)) == (2, 0, 0)
    first_hops = batch.first_hops[0].tolist()
    assert first_hops in ([], selection.one_hop["cluster"].tolist())
    fetched = {}
    for first in first_hops:
        answer = close_set_of(first)
        if answer is not None:
            fetched[first] = answer
    (expanded,) = batch.expand(fetched)
    assert expanded is selection
    return selection


def assert_same_selection(got, want, asked):
    """``got`` is the oracle's ``want``: the same candidate bytes (exact
    floats, order), bill and ranking, and the first hops asked for are
    all of the one-hop candidates or none of them, ascending."""
    assert got.one_hop.tobytes() == want.one_hop.tobytes()
    assert got.two_hop.tobytes() == want.two_hop.tobytes()
    assert got == want
    assert got.best_rtt_ms() == want.best_rtt_ms()
    assert ranked_relay_clusters(got) == ranked_relay_clusters(want)
    assert asked in ([], got.one_hop["cluster"].tolist())
    assert got.two_hop_queries == len(asked)


def check_against_oracle(world):
    s1, s2, fetched, cluster_size, config = world
    results, asked = [], []
    for select in (select_close_relay, scalar_select_close_relay, stepwise_select):
        # Fresh sets per implementation: none shares arrays with another.
        sets = {r1: close_set(r1, rtts) for r1, rtts in fetched.items()}
        # The composition and the specification see a first hop that
        # never answers as an empty set; the steps see no set at all.
        missing = None if select is stepwise_select else CloseClusterSet(owner=-1)
        order = []

        def close_set_of(idx):
            order.append(idx)
            return sets.get(idx, missing)

        results.append(
            select(close_set(100, s1), close_set(101, s2), cluster_size, close_set_of, config)
        )
        asked.append(order)
    for got in (results[0], results[2]):
        assert_same_selection(got, results[1], asked[1])
    assert asked[0] == asked[1] == asked[2]
    if config.size_threshold == 0:
        assert asked[1] == []


class TestMatchesScalarOracle:
    @given(selection_worlds())
    @settings(max_examples=300, deadline=None)
    def test_array_selection_equals_scalar_oracle(self, world):
        check_against_oracle(world)

    @given(sparse_selection_worlds())
    @settings(max_examples=300, deadline=None)
    def test_sparse_ids_equal_scalar_oracle(self, world):
        check_against_oracle(world)


class TestBatchPathMatchesOracle:
    """``ASAPSystem.call_many`` on the ``small`` world ≡ the scalar
    oracle run session by session on the same close sets."""

    def test_call_many_equals_scalar_oracle(self):
        scenario = small_scenario(seed=0)
        config = ASAPConfig(k_hops=derive_k_hops(scenario.matrices))
        system = ASAPSystem(scenario, config)
        rtt = scenario.matrices.rtt_ms
        hosts = [cluster.hosts for cluster in scenario.clusters.all_clusters()]
        latent = [
            (hosts[a][0].ip, hosts[b][-1].ip)
            for a, b in np.argwhere(~(np.isfinite(rtt) & (rtt < config.lat_threshold_ms))).tolist()
            if a < b and hosts[a] and hosts[b]
        ]
        order = np.random.default_rng(0).permutation(len(latent))[:100]
        sessions = system.call_many([latent[i] for i in order])
        assert len(sessions) == 100 and all(s.relay_needed for s in sessions)
        two_hop = 0
        for session in sessions:

            def serve(cluster, requester):
                return snapshot(system.surrogate(cluster, requester=requester).serve_close_set())

            want = scalar_select_close_relay(
                serve(session.caller_cluster, session.caller),
                serve(session.callee_cluster, session.callee),
                system.online_sizes,
                lambda cluster: serve(cluster, session.caller),
                config,
            )
            got = session.selection
            assert got.one_hop.tobytes() == want.one_hop.tobytes()
            assert got.two_hop.tobytes() == want.two_hop.tobytes()
            assert got == want
            two_hop += bool(len(got.two_hop))
        assert two_hop > 10  # the two-hop step ran on many sessions
