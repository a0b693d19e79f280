"""Tests for network conditions and the latency model."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.measurement import (
    ConditionsConfig,
    LatencyModel,
    NetworkConditions,
    RELAY_DELAY_ONE_WAY_MS,
    RELAY_DELAY_RTT_MS,
    generate_conditions,
)
from repro.scenario import ScenarioConfig, build_scenario
from repro.topology import (
    PopulationConfig,
    TopologyConfig,
    allocate_prefixes,
    generate_population,
    generate_topology,
)

SMALL = TopologyConfig(tier1_count=4, tier2_count=12, tier3_count=40, seed=1)


@pytest.fixture(scope="module")
def world():
    topo = generate_topology(SMALL)
    allocation = allocate_prefixes(topo, seed=1)
    population = generate_population(
        topo, allocation, PopulationConfig(host_count=300, seed=1)
    )
    conditions = generate_conditions(
        topo, ConditionsConfig(congested_link_fraction=0.1, failed_fraction=0.05, seed=1)
    )
    model = LatencyModel(topo, conditions, population, seed=1)
    return topo, population, conditions, model


class TestConditionsConfig:
    def test_rejects_bad_fraction(self):
        with pytest.raises(ConfigurationError):
            ConditionsConfig(congested_link_fraction=1.5)

    def test_rejects_bad_loss(self):
        with pytest.raises(ConfigurationError):
            ConditionsConfig(baseline_loss_rate=1.0)

    def test_rejects_negative_penalty(self):
        with pytest.raises(ConfigurationError):
            ConditionsConfig(link_penalty_median_ms=-1)


class TestGenerateConditions:
    def test_deterministic(self, world):
        topo, *_ = world
        cfg = ConditionsConfig(congested_link_fraction=0.1, seed=5)
        a = generate_conditions(topo, cfg)
        b = generate_conditions(topo, cfg)
        assert a.link_penalty == b.link_penalty
        assert a.failed_ases == b.failed_ases

    def test_congested_links_are_transit_transit(self, world):
        topo, _, conditions, _ = world
        transit = set(topo.transit_ases())
        for a, b in sorted(conditions.link_penalty):
            assert a in transit and b in transit

    def test_failed_are_transit_not_tier1(self, world):
        topo, _, conditions, _ = world
        for asn in conditions.failed_ases:
            assert topo.tier_of[asn] == 2

    def test_every_as_has_loss_rate(self, world):
        topo, _, conditions, _ = world
        for asn in topo.graph.ases():
            assert 0.0 <= conditions.loss_of(asn) < 0.5

    def test_loss_raised_near_congestion(self, world):
        topo, _, conditions, _ = world
        hot = {a for link in sorted(conditions.link_penalty) for a in link}
        if not hot:
            pytest.skip("no congested links drawn")
        cold = [a for a in topo.graph.ases() if a not in hot]
        hot_loss = np.mean([conditions.loss_of(a) for a in hot])
        cold_loss = np.mean([conditions.loss_of(a) for a in cold])
        assert hot_loss > cold_loss

    def test_whole_as_congestion_ablation_knob(self, world):
        topo, *_ = world
        conditions = generate_conditions(
            topo, ConditionsConfig(congested_as_fraction=0.5, congested_link_fraction=0.0, seed=2)
        )
        assert sorted(conditions.congestion_penalty_ms)
        for asn in sorted(conditions.congestion_penalty_ms):
            assert conditions.penalty_ms(asn) > 0


class TestLatencyModel:
    def test_link_delay_symmetric_and_cached(self, world):
        topo, _, _, model = world
        ases = topo.graph.ases()
        a, b = ases[0], ases[1]
        assert model.link_delay_ms(a, b) == model.link_delay_ms(b, a)

    def test_link_delay_includes_congestion(self, world):
        topo, _, conditions, model = world
        links = sorted(conditions.link_penalty)
        if not links:
            pytest.skip("no congested links drawn")
        a, b = links[0]
        base = topo.geography.propagation_delay_ms(a, b)
        assert model.link_delay_ms(a, b) >= base + conditions.link_penalty_ms(a, b)

    def test_path_one_way_endpoint_congestion_exempt(self, world):
        topo, _, conditions, model = world
        # endpoint AS cost excludes whole-AS congestion penalties
        asn = topo.graph.ases()[0]
        assert model.endpoint_cost_ms(asn) <= model.node_cost_ms(asn)

    def test_as_rtt_is_twice_one_way(self, world):
        topo, _, _, model = world
        stubs = topo.stub_ases()
        a, b = stubs[0], stubs[1]
        one_way = model.as_one_way_ms(a, b)
        if one_way is None:
            pytest.skip("pair unreachable under failures")
        assert model.as_rtt_ms(a, b) == pytest.approx(2 * one_way)

    def test_failed_as_unreachable(self, world):
        topo, _, conditions, model = world
        if not conditions.failed_ases:
            pytest.skip("no failures drawn")
        dead = next(iter(conditions.failed_ases))
        alive = topo.stub_ases()[0]
        assert model.as_path(alive, dead) is None
        assert model.as_rtt_ms(alive, dead) is None

    def test_host_rtt_adds_access_delays(self, world):
        topo, population, _, model = world
        a, b = population.hosts[0], population.hosts[1]
        core = model.as_rtt_ms(a.asn, b.asn)
        if core is None:
            pytest.skip("pair unreachable")
        assert model.host_rtt_ms(a, b) == pytest.approx(
            core + 2 * (a.access_delay_ms + b.access_delay_ms)
        )

    def test_one_hop_relay_rtt(self, world):
        _, population, _, model = world
        hosts = population.hosts
        a, r, b = hosts[0], hosts[5], hosts[9]
        direct_legs = (model.host_rtt_ms(a, r), model.host_rtt_ms(r, b))
        if any(leg is None for leg in direct_legs):
            pytest.skip("legs unreachable")
        assert model.one_hop_relay_rtt_ms(a, r, b) == pytest.approx(
            sum(direct_legs) + RELAY_DELAY_RTT_MS
        )

    def test_relay_delay_constants(self):
        assert RELAY_DELAY_RTT_MS == 2 * RELAY_DELAY_ONE_WAY_MS == 40.0

    def test_deterministic_across_instances(self, world):
        topo, population, conditions, model = world
        clone = LatencyModel(topo, conditions, population, seed=1)
        a, b = population.hosts[0], population.hosts[1]
        assert clone.host_rtt_ms(a, b) == model.host_rtt_ms(a, b)


def _one_way_oracle(model, src_as, dst_as):
    """The one-way delay recomputed from the policy path, never memoized."""
    if src_as == dst_as:
        return model.endpoint_cost_ms(src_as)
    path = model.as_path(src_as, dst_as)
    return None if path is None else model.path_one_way_ms(path)


@pytest.fixture(scope="module")
def small_models():
    """The ``small`` world's model, plus one with a transit AS failed
    that some healthy stub-to-stub path crosses."""
    scenario = build_scenario(ScenarioConfig.preset("small", 0))
    healthy = scenario.latency
    stubs = scenario.topology.stub_ases()
    through = {}
    for a in stubs[:12]:
        for b in stubs[-12:]:
            path = healthy.as_path(a, b)
            for asn in path[1:-1] if path else ():
                through.setdefault(asn, []).append((a, b))
    dead = max(through, key=lambda asn: len(through[asn]))
    failed = LatencyModel(
        scenario.topology,
        dataclasses.replace(scenario.conditions, failed_ases=frozenset({dead})),
        scenario.population,
        seed=0,
    )
    return scenario, healthy, failed, dead, through[dead]


class TestOneWayMemo:
    def _check(self, model, pairs):
        for _ in range(2):  # first pass fills the memo, second reads it
            for a, b in pairs:
                for src, dst in ((a, b), (b, a), (a, a)):
                    assert model.as_one_way_ms(src, dst) == _one_way_oracle(model, src, dst)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_memo_equals_recomputed_path_delay(self, small_models, data):
        scenario, healthy, failed, dead, _ = small_models
        ases = sorted(scenario.topology.graph.ases())
        pairs = data.draw(st.lists(st.tuples(st.sampled_from(ases), st.sampled_from(ases)),
                                   min_size=1, max_size=6))
        self._check(healthy, pairs)
        self._check(failed, pairs + [(dead, pairs[0][0])])

    def test_pairs_through_a_failed_as(self, small_models):
        scenario, healthy, failed, dead, crossing = small_models
        self._check(failed, crossing)
        for a, b in crossing:
            assert dead in healthy.as_path(a, b)
            path = failed.as_path(a, b)
            assert path is None or dead not in path
        for other in scenario.topology.stub_ases()[:5]:
            assert failed.as_one_way_ms(other, dead) is None
            assert failed.as_one_way_ms(dead, other) is None  # None stays None
            assert failed.as_rtt_ms(dead, other) is None
