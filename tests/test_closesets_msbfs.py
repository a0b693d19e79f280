"""The bit-parallel multi-source close-set sweep against the Fig. 9
oracle at the edges of its uint64 words.

``build_many`` over S ∈ {1, 63, 64, 65, 129} sources in one sweep (one,
two and three words, one bit into the next word) ≡
``construct_close_cluster_set`` source by source — array bytes, the
accounting, ``probes_by_as`` and ``meta_out`` in item order — with the
valley-free rule on and off, random online masks that darken owners,
and owners built from an AS other than their own.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ASAPConfig, ASAPSystem
from repro.scenario import ScenarioConfig, build_scenario
from repro.storage.columns import ColumnStore
from repro.worldarrays import closesets
from repro.worldarrays.virtual import VirtualMatrices
from tests.oracles import reference_close_set

CONFIGS = {
    "valley-free": ASAPConfig(),
    "unconstrained": ASAPConfig(valley_free=False, k_hops=3),
}


@pytest.fixture(scope="module")
def world():
    return build_scenario(ScenarioConfig.preset("small", 0))


@pytest.fixture(scope="module")
def systems(world):
    return {name: ASAPSystem(world, config) for name, config in CONFIGS.items()}


def _assert_same_bytes(built, want):
    for name in ("ids", "rtt_ms", "loss", "as_hops"):
        got, expected = getattr(built, name), getattr(want, name)
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()
    assert (built.owner, built.probe_messages, built.ases_visited) == (
        want.owner, want.probe_messages, want.ases_visited,
    )
    assert list(built.probes_by_as.items()) == list(want.probes_by_as.items())


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("slots", [1, 63, 64, 65, 129])
@given(
    seed=st.integers(0, 2**32 - 1),
    dark=st.sampled_from([0.0, 0.3, 0.7]),
    strangers=st.sampled_from([0.0, 0.2]),
    with_meta=st.booleans(),
)
@settings(max_examples=3, deadline=None)
def test_one_sweep_equals_the_oracle_per_source(
    systems, config, slots, seed, dark, strangers, with_meta
):
    system = systems[config]
    builder = system.close_set_builder
    view = system.scenario.matrix_view()
    assert slots <= closesets.CELLS // builder._csr.count  # one sweep
    rng = np.random.default_rng(seed)
    online = None if dark == 0.0 else rng.random(view.count) >= dark
    owners = rng.choice(view.count, size=slots, replace=False).tolist()
    ases = builder._csr.as_ids
    sources = [
        (owner, int(rng.choice(ases)) if rng.random() < strangers else int(view.asn_of[owner]))
        for owner in owners
    ]
    if online is not None:
        online[owners[0]] = False  # at least one dark owner
    metas = {} if with_meta else None
    built = builder.build_many(sources, online, meta_out=metas)
    assert list(built) == owners
    for owner, asn in sources:
        meta = {}
        want = reference_close_set(system, owner, online=online, meta_out=meta, own_as=asn)
        _assert_same_bytes(built[owner], want)
        if with_meta:
            assert list(metas[owner].items()) == list(meta.items())


@pytest.fixture(scope="module")
def streamed(world, tmp_path_factory):
    clusters = world.clusters.all_clusters()
    store = ColumnStore(
        tmp_path_factory.mktemp("rows"), key="small-0", n=len(clusters), chunk=64
    )
    return VirtualMatrices(world.latency, clusters, chunk_columns=64, store=store)


@given(seed=st.integers(0, 2**32 - 1), slots=st.sampled_from([1, 2, 64, 65, 200]))
@settings(max_examples=10, deadline=None)
def test_streamed_rows_equal_dense_rows(streamed, world, seed, slots):
    # Chunks of 64 columns divide no world's N here: the last is short.
    sources = np.random.default_rng(seed).integers(0, streamed.count, size=slots)
    for got, want in zip(streamed.rows(sources), world.matrices.rows(sources)):
        assert got.shape == (slots, streamed.count)
        assert got.dtype == want.dtype == np.float64
        assert got.tobytes() == want.tobytes()


@given(seed=st.integers(0, 2**32 - 1), dark=st.sampled_from([0.0, 0.3]))
@settings(max_examples=5, deadline=None)
def test_probe_as_equals_the_oracle_per_visited_as(systems, seed, dark):
    # The maintainer's single-AS probe: the oracle's verdict, and the
    # members the oracle found in that AS — the owner never among them.
    system = systems["valley-free"]
    builder = system.close_set_builder
    view = system.scenario.matrix_view()
    rng = np.random.default_rng(seed)
    online = None if dark == 0.0 else rng.random(view.count) >= dark
    owner = int(rng.integers(view.count))
    meta = {}
    entries = reference_close_set(system, owner, online=online, meta_out=meta).entries
    for asn, (depth, expands) in meta.items():
        verdict, rows, rtt, lost = builder.probe_as(owner, asn, depth, online)
        want = [e for c, e in entries.items() if view.asn_of[c] == asn and c != owner]
        assert verdict == expands
        assert rows.tolist() == [e.cluster for e in want]
        assert rtt.tolist() == [e.rtt_ms for e in want]
        assert lost.tolist() == [e.loss for e in want]
