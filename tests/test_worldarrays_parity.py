"""Flat-array substrate parity: bit-identical to its executable specs.

The ``repro.worldarrays`` kernels are the only production matrix-fill
and close-set code, and they are *substitutes* for the obvious scalar
algorithms, not approximations: for the same world they must reproduce
the oracles (``tests/oracles.py``) bit for bit — every matrix cell
(IEEE-exact), every close-set entry, every probe count, the BFS
verdicts, and every observability record, across seeds and scales,
under any membership mask, with tracing on.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import ASAPConfig, ASAPSystem
from repro.measurement.conditions import ConditionsConfig, generate_conditions
from repro.measurement.latency import LatencyModel
from repro.measurement.matrix import compute_delegate_matrices
from repro.scenario import ScenarioConfig, build_scenario, small_scenario
from repro.scenario import PopulationConfig, TopologyConfig
from repro.storage.columns import ColumnStore
from repro.topology.generator import generate_topology
from repro.util.rng import derive_rng
from repro.worldarrays.closesets import CloseClusterSet
from repro.worldarrays import closesets
from repro.measurement.matrixfill import FlatMatrixAssembler, WorldArrays
from repro.worldarrays import FlatCloseSetBuilder
from repro.worldarrays.virtual import VirtualMatrices
from tests.oracles import (
    assert_arrays_are_the_set,
    counter_value,
    fill_destinations,
    reference_close_set,
    scalar_delegate_matrices,
    tiny_scenario,
)

SEEDS = (3, 11, 29)


def _medium_scenario(seed: int):
    """A second scale tier: ~2x the tiny world in every dimension."""
    config = dataclasses.replace(
        ScenarioConfig.preset("tiny", seed),
        topology=TopologyConfig(
            tier1_count=4, tier2_count=16, tier3_count=80, seed=seed
        ),
        population=PopulationConfig(host_count=900, seed=seed),
        vantage_count=6,
    )
    return build_scenario(config)


@pytest.fixture(scope="module")
def scenarios():
    return [tiny_scenario(seed=s) for s in SEEDS] + [_medium_scenario(17)]


def _assert_matrices_identical(a, b):
    assert np.array_equal(a.rtt_ms, b.rtt_ms)
    assert np.array_equal(a.loss, b.loss)
    assert np.array_equal(a.as_hops, b.as_hops)
    assert a.prefixes == b.prefixes


class TestMatrixParity:
    def test_flat_serial_bit_identical_across_seeds_and_scales(self, scenarios):
        for scenario in scenarios:
            _assert_matrices_identical(
                compute_delegate_matrices(scenario.latency, scenario.clusters),
                scalar_delegate_matrices(scenario.latency, scenario.clusters),
            )

    def test_synthetic_10k_clusters_sampled_columns(self):
        # 10,000 synthetic clusters over a small topology, 8 sampled
        # destination columns: the shape the scale tiers assemble, far
        # beyond what a built scenario reaches in a unit test.
        n, sampled = 10_000, 8
        topology = generate_topology(
            TopologyConfig(tier1_count=3, tier2_count=10, tier3_count=40, seed=0)
        )
        model = LatencyModel(
            topology, generate_conditions(topology, ConditionsConfig(seed=0)), seed=0
        )
        rng = derive_rng(0, "parity-synthetic")
        ases = np.array(sorted(model.router.graph.ases()), dtype=np.int64)
        asn_of = ases[rng.integers(0, len(ases), n)]
        access = np.round(rng.uniform(2.0, 30.0, n), 3)
        sizes = rng.integers(1, 64, n, dtype=np.int64)
        columns = [int(c) for c in np.sort(rng.choice(n, size=sampled, replace=False))]

        def blank():
            return (
                np.full((n, sampled), np.inf, dtype=float),
                np.full((n, sampled), 1.0, dtype=float),
                np.full((n, sampled), -1, dtype=np.int64),
            )

        flat, scalar = blank(), blank()
        world = WorldArrays.from_arrays(model, asn_of, access, sizes)
        FlatMatrixAssembler(model, world).fill_columns(columns, *flat)
        fill_destinations(columns, model, access, asn_of, *scalar)
        for got, expected in zip(flat, scalar):
            assert np.array_equal(got, expected)
        assert np.isfinite(flat[0]).any()  # the columns were actually filled


def _with_failed_ases(scenario) -> LatencyModel:
    """The scenario's latency model after two ASes went dark: the transit
    AS with the most customers (routes detour or vanish) and one that
    hosts clusters (dark rows and columns; the array universe is then
    larger than the routing graph)."""
    graph = scenario.topology.graph
    transit = max(
        scenario.topology.transit_ases(), key=lambda a: (len(graph.customers(a)), -a)
    )
    hosting = scenario.clusters.all_clusters()[0].asn
    conditions = dataclasses.replace(
        scenario.conditions, failed_ases=frozenset({transit, hosting})
    )
    return LatencyModel(
        scenario.topology, conditions, scenario.population, seed=scenario.config.seed
    )


def _streamed(model, cluster_list, root, chunk):
    store = ColumnStore(root, key="parity", n=len(cluster_list), chunk=chunk)
    return VirtualMatrices(model, cluster_list, chunk_columns=chunk, store=store)


def _assert_view_equals_dense(view, dense):
    for cols, rtt, loss, hops in view.iter_column_blocks():
        assert np.array_equal(rtt, dense.rtt_ms[:, cols])
        assert np.array_equal(loss, dense.loss[:, cols])
        assert np.array_equal(hops, dense.as_hops[:, cols])


class TestEveryFillEqualsTheDictTreeOracle:
    """The scalar oracle walks dict-built trees; dense and streamed
    fills, both on batched array trees, reproduce it."""

    @pytest.fixture(scope="class", params=["tiny", "tiny-failed", "small", "small-failed"])
    def world(self, request):
        name, _, failed = request.param.partition("-")
        scenario = tiny_scenario(seed=5) if name == "tiny" else small_scenario(seed=1)
        model = _with_failed_ases(scenario) if failed else scenario.latency
        return model, scenario.clusters, scalar_delegate_matrices(model, scenario.clusters)

    def test_dense_serial_and_pooled(self, world):
        # Serial only since 1.20 (no pool); the name keeps the test id.
        model, clusters, reference = world
        if model.conditions.failed_ases:
            assert np.isinf(reference.rtt_ms[:, 0]).sum() == reference.count - 1
            assert np.isfinite(reference.rtt_ms).sum(axis=0).max() > reference.count // 2
        _assert_matrices_identical(compute_delegate_matrices(model, clusters), reference)

    def test_streamed(self, world, tmp_path):
        model, clusters, reference = world
        view = _streamed(model, clusters.all_clusters(), tmp_path, chunk=64)
        _assert_view_equals_dense(view, reference)


def test_streamed_chunks_that_split_ases_equal_dense(tmp_path):
    # Seven-column chunks on ``tiny``: clusters of one AS straddle chunk
    # boundaries, so its tree is built in two faults — same cells.
    scenario = tiny_scenario(seed=3)
    cluster_list = scenario.clusters.all_clusters()
    view = _streamed(scenario.latency, cluster_list, tmp_path, chunk=7)
    chunk_of_as = {}
    for column, cluster in enumerate(cluster_list):
        chunk_of_as.setdefault(cluster.asn, set()).add(column // 7)
    assert any(len(chunks) > 1 for chunks in chunk_of_as.values())
    _assert_view_equals_dense(view, scenario.matrices)
    rows, cols = np.arange(view.count)[:, None], np.arange(view.count)[None, :]
    assert np.array_equal(view.gather_rtt(rows, cols), scenario.matrices.rtt_ms)
    assert np.array_equal(view.gather_loss(rows, cols), scenario.matrices.loss)


def _online_mask(seed: int, count: int) -> np.ndarray:
    """A seeded membership mask with roughly a third of clusters dark."""
    return derive_rng(seed, "parity-online").random(count) >= 0.35


def _assert_close_set_identical(flat, ref):
    assert_arrays_are_the_set(flat)
    assert flat.owner == ref.owner
    assert flat.probe_messages == ref.probe_messages
    assert flat.ases_visited == ref.ases_visited
    assert dict(flat.probes_by_as) == dict(ref.probes_by_as)
    assert dict(flat.entries) == dict(ref.entries)  # bitwise floats: no approx


def _assert_builder_matches_reference(system, online=None):
    builder = system.close_set_builder
    view = system.scenario.matrix_view()
    for cluster in range(view.count):
        flat_meta, ref_meta = {}, {}
        flat = builder.build(
            cluster, int(view.asn_of[cluster]), meta_out=flat_meta, online=online
        )
        ref = reference_close_set(system, cluster, online=online, meta_out=ref_meta)
        _assert_close_set_identical(flat, ref)
        assert flat_meta == ref_meta


class TestCloseSetParity:
    def test_bit_identical_across_seeds_and_scales(self, scenarios):
        for scenario in scenarios:
            _assert_builder_matches_reference(ASAPSystem(scenario, ASAPConfig()))

    def test_unconstrained_bfs_parity(self, scenarios):
        config = ASAPConfig(valley_free=False, k_hops=2)
        _assert_builder_matches_reference(ASAPSystem(scenarios[0], config))

    @given(st.integers(0, 10_000), st.integers(0, len(SEEDS)))
    @settings(max_examples=12, deadline=None)
    def test_online_mask_equals_filtered_reference(self, scenarios, mask_seed, world):
        # ``online=mask`` ≡ the reference with ``clusters_in_as`` filtered
        # by the same mask — entries, accounting and ``meta_out``.
        system = ASAPSystem(scenarios[world], ASAPConfig())
        online = _online_mask(mask_seed, system.scenario.matrix_view().count)
        _assert_builder_matches_reference(system, online=online)


class CountingView:
    """A dense view that records every read: the cells of each gather as
    ``row * count + col`` keys, and the sources of each row read."""

    def __init__(self, view):
        self._view = view
        self.count = view.count
        self.rtt_reads, self.loss_reads, self.row_reads = [], [], []

    def _cells(self, rows, cols):
        rows, cols = np.broadcast_arrays(np.asarray(rows), np.asarray(cols))
        return rows * self.count + cols

    def gather_rtt(self, rows, cols):
        self.rtt_reads.append(self._cells(rows, cols))
        return self._view.gather_rtt(rows, cols)

    def gather_loss(self, rows, cols):
        self.loss_reads.append(self._cells(rows, cols))
        return self._view.gather_loss(rows, cols)

    def rows(self, sources):
        self.row_reads.append(np.array(sources).tolist())
        return self._view.rows(sources)


def _counting_builder(scenario):
    system = ASAPSystem(scenario, ASAPConfig())
    view = scenario.matrix_view()
    counting = CountingView(view)
    builder = FlatCloseSetBuilder(
        scenario.protocol_graph,
        counting,
        {asn: np.flatnonzero(view.asn_of == asn).tolist() for asn in set(view.asn_of.tolist())},
        k_hops=system.config.k_hops,
        lat_threshold_ms=system.config.lat_threshold_ms,
        valley_free=system.config.valley_free,
    )
    return system, counting, builder


class TestOneRowReadPerSweep:
    def test_one_row_read_per_build_and_no_gathers(self, scenarios):
        system, counting, builder = _counting_builder(scenarios[-1])
        view = system.scenario.matrix_view()
        for cluster in range(view.count):
            counting.row_reads.clear()
            built = builder.build(cluster, int(view.asn_of[cluster]))
            _assert_close_set_identical(built, reference_close_set(system, cluster))
            assert counting.row_reads == [[cluster]]
        assert counting.rtt_reads == counting.loss_reads == []

    def test_one_row_read_per_batch_and_no_gathers(self, scenarios):
        system, counting, builder = _counting_builder(scenarios[-1])
        view = system.scenario.matrix_view()
        sources = [(c, int(view.asn_of[c])) for c in range(view.count)]
        assert view.count * builder._csr.count <= closesets.CELLS  # one sweep
        built = builder.build_many(sources + sources[:5])  # repeats are built once
        assert counting.row_reads == [list(range(view.count))]
        assert counting.rtt_reads == counting.loss_reads == []
        for cluster, close_set in built.items():
            _assert_close_set_identical(close_set, reference_close_set(system, cluster))


def _assert_bytes_identical(batch, single):
    """Stricter than ``==``: array bytes and ``probes_by_as`` item order."""
    assert batch == single
    for name in ("ids", "rtt_ms", "loss", "as_hops"):
        assert getattr(batch, name).dtype == getattr(single, name).dtype
        assert getattr(batch, name).tobytes() == getattr(single, name).tobytes()
    assert list(batch.probes_by_as.items()) == list(single.probes_by_as.items())


class TestBatchBuilder:
    """``build_many`` ≡ one ``build`` per source, however it is batched."""

    def _assert_batch_equals_singles(self, system, online, rng, monkeypatch):
        builder = system.close_set_builder
        view = system.scenario.matrix_view()
        sources = [(int(c), int(view.asn_of[c])) for c in rng.permutation(view.count)]
        singles = {c: builder.build(c, asn, online=online) for c, asn in sources}
        whole = builder.build_many(sources, online)
        assert list(whole) == list(singles)
        for cluster, single in singles.items():
            _assert_bytes_identical(whole[cluster], single)
        # Any partition of the sources, under any cell budget, builds the
        # same sets.
        cuts = sorted(rng.choice(len(sources), size=3, replace=False).tolist())
        parts = [sources[a:b] for a, b in zip([0] + cuts, cuts + [len(sources)])]
        for cells in (1, 3 * builder._csr.count + 1):
            monkeypatch.setattr(closesets, "CELLS", cells)
            for part in parts:
                for cluster, built in builder.build_many(part, online).items():
                    _assert_bytes_identical(built, singles[cluster])

    def test_equals_build_across_seeds_scales_and_masks(self, scenarios, monkeypatch):
        rng = np.random.default_rng(7)
        for scenario in scenarios:
            system = ASAPSystem(scenario, ASAPConfig())
            count = scenario.matrix_view().count
            for online in (None, _online_mask(int(rng.integers(10_000)), count)):
                self._assert_batch_equals_singles(system, online, rng, monkeypatch)

    def test_unconstrained_bfs(self, scenarios, monkeypatch):
        system = ASAPSystem(scenarios[0], ASAPConfig(valley_free=False, k_hops=2))
        rng = np.random.default_rng(8)
        self._assert_batch_equals_singles(system, None, rng, monkeypatch)

    def test_peer_and_sibling_steps(self, monkeypatch):
        # The inferred protocol graph rarely has peer or sibling edges;
        # the ground-truth graph has both.
        scenario = build_scenario(
            dataclasses.replace(ScenarioConfig.preset("tiny", 3), use_inferred_graph=False)
        )
        graph = scenario.protocol_graph
        assert any(graph.peers(asn) for asn in graph.ases())
        rng = np.random.default_rng(9)
        self._assert_batch_equals_singles(
            ASAPSystem(scenario, ASAPConfig()), None, rng, monkeypatch
        )

    def test_unknown_as_yields_the_empty_set_and_nothing_is_emitted(self, scenarios):
        system = ASAPSystem(scenarios[0], ASAPConfig())
        builder = system.close_set_builder
        view = system.scenario.matrix_view()
        unknown_as = max(system.scenario.protocol_graph.ases()) + 1
        with obs.observe() as run:
            built = builder.build_many([(0, int(view.asn_of[0])), (1, unknown_as)])
            assert built[1] == builder.build(1, unknown_as) == CloseClusterSet(owner=1)
            assert len(built[0]) > 0
            assert counter_value(run.registry, "close_set.built") == 0
            builder.build(0, int(view.asn_of[0]))
            assert counter_value(run.registry, "close_set.built") == 1


class TestObservabilityParity:
    """Tracing on: builder and reference write byte-identical spans."""

    def _trace_bytes(self, system, build, obs_dir):
        with obs.observe(obs_dir=obs_dir, trace=True):
            for cluster in range(system.scenario.matrix_view().count):
                build(cluster)
        return (obs_dir / "traces.jsonl").read_bytes()

    def test_traces_byte_identical(self, scenarios, tmp_path):
        system = ASAPSystem(scenarios[0], ASAPConfig())
        asn_of = system.scenario.matrix_view().asn_of
        flat_trace = self._trace_bytes(
            system,
            lambda c: system.close_set_builder.build(c, int(asn_of[c])),
            tmp_path / "flat",
        )
        ref_trace = self._trace_bytes(
            system, lambda c: reference_close_set(system, c), tmp_path / "reference"
        )
        assert flat_trace == ref_trace
        assert b"close_set.build" in flat_trace  # the spans were actually emitted
