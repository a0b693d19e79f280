"""The batch kernel of select-close-relay ≡ the scalar Fig. 10
specification, session by session, on real worlds.

Hypothesis draws a ``tiny`` or ``small`` world, churns clusters dark,
picks a batch of latent pairs (one of them twice) and sets ``sizeT`` to
exactly the largest |OS| of the batch; one extra session gets an empty
S2, and some first hops' sets never arrive.  The kernel
(:class:`~repro.core.relay_selection.SelectionBatch`) must give every
session the candidate bytes, bill and ranking of
``tests/oracles.py::scalar_select_close_relay``; ``ASAPSystem.call_many``
must leave every surrogate member's request count and the traced
``close_set.build`` emission exactly as calling session by session.
"""

import dataclasses
import functools
import random
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import ASAPConfig, ASAPSystem
from repro.core.config import derive_k_hops
from repro.core.relay_selection import SelectionBatch, ranked_relay_clusters
from repro.scenario import ScenarioConfig, build_scenario
from repro.worldarrays.closesets import CloseClusterSet
from tests.oracles import scalar_select_close_relay, snapshot

WORLDS = st.sampled_from([("tiny", 0), ("tiny", 3), ("tiny", 5), ("small", 0), ("small", 1)])


@functools.lru_cache(maxsize=None)
def _world(scale: str, seed: int):
    scenario = build_scenario(ScenarioConfig.preset(scale, seed))
    return scenario, ASAPConfig(k_hops=derive_k_hops(scenario.matrices))


@st.composite
def batches(draw):
    """``(scenario, config, dark clusters, leavers, cluster pairs)``."""
    scenario, config = _world(*draw(WORLDS))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    hosts = [cluster.hosts for cluster in scenario.clusters.all_clusters()]
    dark = set(rng.sample(range(len(hosts)), draw(st.integers(0, 6))))
    leavers = [rng.choice(members).ip for members in rng.sample(hosts, 5) if members]
    rtt = scenario.matrices.rtt_ms
    latent = [
        (a, b)
        for a, b in np.argwhere(~(np.isfinite(rtt) & (rtt < config.lat_threshold_ms))).tolist()
        if a != b and a not in dark and b not in dark and hosts[a] and hosts[b]
    ]
    assume(latent)
    pairs = rng.sample(latent, min(len(latent), draw(st.integers(1, 24))))
    pairs.insert(rng.randrange(len(pairs) + 1), rng.choice(pairs))  # the same pair twice
    return scenario, config, dark, leavers, pairs


def _system(scenario, config, dark, leavers) -> ASAPSystem:
    system = ASAPSystem(scenario, config)
    clusters = scenario.clusters.all_clusters()
    for ip in [h.ip for c in sorted(dark) for h in clusters[c].hosts] + leavers:
        system.leave(ip)
    return system


class TestKernelEqualsScalarOracle:
    @given(batches(), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_each_session_equals_the_oracle(self, batch, seed):
        scenario, config, dark, leavers, pairs = batch
        system = _system(scenario, config, dark, leavers)
        assert all(system.online_sizes[c] == 0 for c in dark)
        system.want(range(scenario.matrix_view().count))  # one sweep computes every set
        endpoints = [(system.close_set(a), system.close_set(b)) for a, b in pairs]
        endpoints.append((endpoints[0][0], CloseClusterSet(owner=pairs[0][1])))  # empty S2
        sizes = system.online_sizes
        # sizeT reached exactly by the batch's largest |OS|.
        wide = dataclasses.replace(config, size_threshold=10**9)
        one_hop = SelectionBatch(endpoints, sizes, wide).selections
        largest = max(one_hop, key=lambda selection: selection.one_hop_ips)
        config = dataclasses.replace(config, size_threshold=max(1, largest.one_hop_ips))
        batch = SelectionBatch(endpoints, sizes, config)
        assert len(batch.selections[-1].one_hop) == 0  # no S2, no one-hop candidate
        hops = np.unique(np.concatenate(batch.first_hops)).tolist()
        lost = set(random.Random(seed).sample(hops, len(hops) // 5))  # never arrive
        fetched = {c: system.close_set(c) for c in hops if c not in lost}
        got = batch.expand(fetched)
        snapshots = {c: snapshot(close_set) for c, close_set in fetched.items()}
        missing = CloseClusterSet(owner=-1)
        for (s1, s2), selection in zip(endpoints, got):
            want = scalar_select_close_relay(
                snapshot(s1), snapshot(s2), sizes, lambda c: snapshots.get(c, missing), config
            )
            assert selection.one_hop.tobytes() == want.one_hop.tobytes()
            assert selection.two_hop.tobytes() == want.two_hop.tobytes()
            assert selection == want
            assert ranked_relay_clusters(selection) == ranked_relay_clusters(want)
        if largest.one_hop_ips:
            assert any(s.one_hop_ips == config.size_threshold for s in got)
        assert not any(
            dark & set(s.one_hop["cluster"].tolist() + s.two_hop["second"].tolist()) for s in got
        )


def _observed(calls, scenario, config, dark, leavers, ip_pairs):
    """Run ``calls(system, ip_pairs)`` on a fresh churned system, traced:
    everything an observer can compare."""
    system = _system(scenario, config, dark, leavers)
    with tempfile.TemporaryDirectory() as obs_dir:
        with obs.observe(obs_dir=obs_dir, trace=True):
            sessions = calls(system, ip_pairs)
        traces = (Path(obs_dir) / "traces.jsonl").read_bytes()
    requests = [
        member.close_set_requests
        for cluster in range(scenario.matrix_view().count)
        for member in system.surrogate_group(cluster)
    ]
    return sessions, requests, traces


class TestCallManyEqualsCallByCall:
    @given(batches())
    @settings(max_examples=15, deadline=None)
    def test_requests_and_emission_order(self, batch):
        scenario, config, dark, leavers, pairs = batch
        # Small surrogate groups, so replicas serve some of the fetches.
        config = dataclasses.replace(config, hosts_per_surrogate=4)
        hosts = [cluster.hosts for cluster in scenario.clusters.all_clusters()]
        ip_pairs = [(hosts[a][0].ip, hosts[b][-1].ip) for a, b in pairs]
        args = (scenario, config, dark, leavers, ip_pairs)
        many = _observed(lambda system, batch: system.call_many(batch), *args)
        one = _observed(lambda system, batch: [system.call(*p) for p in batch], *args)
        assert many == one
        assert many[2].count(b"close_set.build") > 0
