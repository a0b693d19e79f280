"""Tests for the unified experiment engine and its streaming substrate.

The acceptance contract of the engine is *bit-identical results* across
substrates: a streamed run (columns assembled on demand, spilled to a
chunked store, dense N×N never materialized) must reproduce the legacy
dense run record for record.  These tests pin that contract at the tiny
tier, plus the satellite surfaces that ship with the engine: scale
presets (and their deprecation shims), the one canonical
``RelayPolicy.evaluate_sessions`` signature, the resumable column
store, and the one read path of the streamed view (every read a chunk
fault through the store).
"""

import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.baselines.base import RelayPolicy
from repro.errors import ConfigurationError
from repro.evaluation import generate_workload
from repro.evaluation.engine import (
    STREAM_SCALES,
    ExperimentConfig,
    run_experiment,
)
from repro.evaluation.policies import METHOD_NAMES, default_policies
from repro.scenario import (
    SCALES,
    ScenarioConfig,
    tiny_scenario,
)
from repro.storage.columns import ColumnStore
from repro.worldarrays.virtual import VirtualMatrices

EXPERIMENT_KWARGS = dict(
    scale="tiny", seed=3, session_count=400, latent_target=10, max_latent_sessions=10
)


# -- config and presets --------------------------------------------------------


class TestExperimentConfig:
    def test_rejects_unknown_scale(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(scale="galactic")

    def test_rejects_unknown_method(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(methods=("OPT", "TELEPATHY"))

    def test_rejects_empty_workload(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(session_count=0)

    def test_rejects_bad_chunk(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(chunk_columns=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("seed", -1),
            ("session_count", float("nan")),
            ("latent_target", -1),
            ("chunk_columns", float("nan")),
        ],
    )
    def test_rejects_negative_or_non_integer_counts(self, field, value):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(**{field: value})

    def test_substrate_follows_tier(self):
        for scale in SCALES:
            assert ExperimentConfig(scale=scale).streamed == (scale in STREAM_SCALES)

    def test_substrate_override_wins(self):
        assert ExperimentConfig(scale="tiny", stream=True).streamed
        assert not ExperimentConfig(scale="100k", stream=False).streamed


class TestScalePresets:
    def test_tier_table_is_complete(self):
        assert SCALES == ("tiny", "small", "10k", "evaluation", "100k", "1m")
        for scale in SCALES:
            config = ScenarioConfig.preset(scale, seed=5)
            assert config.topology.seed == 5

    def test_unknown_scale_raises(self):
        with pytest.raises(ValueError):
            ScenarioConfig.preset("galactic")

    def test_population_grows_with_tier(self):
        hosts = [ScenarioConfig.preset(s).population.host_count for s in SCALES]
        assert hosts == sorted(hosts)
        assert hosts[-1] == 1_000_000


# -- streaming parity (the engine's core contract) -----------------------------


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    spill = tmp_path_factory.mktemp("spill")
    dense = run_experiment(stream=False, **EXPERIMENT_KWARGS)
    streamed = run_experiment(stream=True, spill_dir=spill, **EXPERIMENT_KWARGS)
    return dense, streamed, spill


class TestStreamingParity:
    def test_same_latent_sessions(self, reports):
        dense, streamed, _ = reports
        assert dense.result.latent_sessions == streamed.result.latent_sessions

    def test_records_bit_identical(self, reports):
        dense, streamed, _ = reports
        assert set(dense.result.records) == set(streamed.result.records)
        for method, records in dense.result.records.items():
            assert records == streamed.result.records[method], method

    def test_summaries_identical(self, reports):
        dense, streamed, _ = reports
        assert dense.result.summaries() == streamed.result.summaries()

    def test_same_derived_k(self, reports):
        dense, streamed, _ = reports
        assert dense.derived_k_hops == streamed.derived_k_hops

    def test_spill_accounting(self, reports):
        dense, streamed, spill = reports
        assert dense.spill is None
        assert streamed.spill is not None
        assert streamed.spill["ephemeral"] is False
        assert streamed.spill["chunks"] == streamed.spill["chunk_total"]
        assert streamed.spill["bytes"] > 0
        assert list(spill.glob("*.npy"))

    def test_stage_timings_cover_pipeline(self, reports):
        for report in reports[:2]:
            assert set(report.stage_seconds) == {
                "build",
                "sweep",
                "workload",
                "evaluate",
                "reduce",
            }
            assert all(v >= 0.0 for v in report.stage_seconds.values())

    def test_per_policy_timings_present(self, reports):
        dense, streamed, _ = reports
        for report in (dense, streamed):
            assert set(report.policy_seconds) == set(METHOD_NAMES)

    def test_resume_reuses_spilled_chunks(self, reports):
        _, first, spill = reports
        chunks = sorted(spill.glob("*.npy"))
        assert chunks
        stamps = {p.name: p.stat().st_mtime_ns for p in chunks}
        again = run_experiment(stream=True, spill_dir=spill, **EXPERIMENT_KWARGS)
        assert again.result.records == first.result.records
        # Every chunk adopted, none rewritten.
        assert {p.name: p.stat().st_mtime_ns for p in sorted(spill.glob("*.npy"))} == stamps


class TestRunArtifacts:
    def test_manifest_annotations_carry_the_run_accounting(self):
        with obs.observe(command="experiment") as run:
            report = run_experiment(stream=True, **EXPERIMENT_KWARGS)
            noted = run.annotations
        assert set(noted["stage_seconds"]) == set(report.stage_seconds)
        assert set(noted["policy_seconds"]) == set(METHOD_NAMES)
        assert noted["clusters"] == report.clusters
        assert noted["dense_bytes"] == report.dense_bytes
        assert noted["derived_k_hops"] == report.derived_k_hops
        assert noted["spill"] == report.spill
        assert noted["spill"]["ephemeral"] is True

    def test_ephemeral_spill_removed_when_build_raises(self, tmp_path, monkeypatch):
        def boom(self, *args, **kwargs):
            raise RuntimeError("build failed after the spill directory exists")

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        monkeypatch.setattr(VirtualMatrices, "__init__", boom)
        with pytest.raises(RuntimeError, match="build failed"):
            run_experiment(stream=True, scale="tiny")
        assert not list(tmp_path.glob("repro-columns-*"))


# -- the column store ----------------------------------------------------------


class TestColumnStore:
    def _store(self, tmp_path, n=10, chunk=4, key="k1"):
        return ColumnStore(tmp_path, key=key, n=n, chunk=chunk)

    def test_geometry(self, tmp_path):
        store = self._store(tmp_path)
        assert store.starts() == [0, 4, 8]
        assert list(store.columns_of(8)) == [8, 9]

    def test_round_trip_bit_exact(self, tmp_path):
        store = self._store(tmp_path)
        rng = np.random.default_rng(0)
        rtt = rng.uniform(1.0, 500.0, (10, 4))
        rtt[0, 0] = np.inf
        loss = rng.uniform(0.0, 1.0, (10, 4))
        hops = rng.integers(-1, 9, (10, 4)).astype(np.int64)
        store.save(0, rtt, loss, hops)
        got_rtt, got_loss, got_hops = store.load(0)
        assert np.array_equal(got_rtt, rtt)
        assert np.array_equal(got_loss, loss)
        assert np.array_equal(got_hops, hops)

    def test_rejects_misshapen_chunk(self, tmp_path):
        store = self._store(tmp_path)
        block = np.zeros((10, 3))
        with pytest.raises(ValueError):
            store.save(0, block, block, block.astype(np.int64))

    def test_progress_counters(self, tmp_path):
        store = self._store(tmp_path)
        assert store.chunk_count() == (0, 3)
        assert not store.complete()
        wide = np.zeros((10, 4))
        narrow = np.zeros((10, 2))
        store.save(0, wide, wide, wide.astype(np.int64))
        store.save(8, narrow, narrow, narrow.astype(np.int64))
        assert store.chunk_count() == (2, 3)
        store.save(4, wide, wide, wide.astype(np.int64))
        assert store.complete()

    def test_foreign_store_is_cleared(self, tmp_path):
        store = self._store(tmp_path)
        block = np.zeros((10, 4))
        store.save(0, block, block, block.astype(np.int64))
        # Same directory, different identity: chunks must not survive.
        other = self._store(tmp_path, key="k2")
        assert other.chunk_count() == (0, 3)
        assert not list(tmp_path.glob("*_00000000.npy"))

    def test_matching_store_is_adopted(self, tmp_path):
        store = self._store(tmp_path)
        block = np.ones((10, 4))
        store.save(0, block, block, block.astype(np.int64))
        adopted = self._store(tmp_path)
        assert adopted.has(0)
        assert np.array_equal(adopted.load(0)[0], block)


# -- the streamed view: one read path ------------------------------------------


@pytest.fixture(scope="module")
def world6():
    scenario = tiny_scenario(seed=6)
    return scenario, scenario.clusters.all_clusters(), scenario.matrices


def _view(world, root, chunk=16):
    scenario, clusters, _ = world
    store = ColumnStore(root, key="parity", n=len(clusters), chunk=chunk)
    return VirtualMatrices(scenario.latency, clusters, chunk_columns=chunk, store=store)


@pytest.fixture(scope="module")
def spilled6(world6, tmp_path_factory):
    view = _view(world6, tmp_path_factory.mktemp("spilled6"))
    view.ensure_spilled()
    return view


class TestVirtualSpillRoundTrip:
    def test_spilled_blocks_match_computed(self, world6, tmp_path):
        dense = world6[2]
        view = _view(world6, tmp_path)
        seen = []
        for cols, rtt, loss, hops in view.iter_column_blocks():
            seen.extend(cols)
            assert np.array_equal(rtt, dense.rtt_ms[:, cols])
            assert np.array_equal(loss, dense.loss[:, cols])
            assert np.array_equal(hops, dense.as_hops[:, cols])
        assert seen == list(range(dense.count))
        assert view.store.complete()
        assert np.array_equal(view.finite_row_fractions(), dense.finite_row_fractions())


_INDEX_SHAPES = st.sampled_from(["scalar", "vector", "outer", "diagonal"])


class TestVirtualReads:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), shape=_INDEX_SHAPES)
    def test_gathers_and_cells_equal_dense_indexing(self, world6, spilled6, data, shape):
        dense = world6[2]
        index = st.integers(0, dense.count - 1)
        vector = st.lists(index, min_size=1, max_size=24)
        if shape == "scalar":
            rows, cols = data.draw(index), data.draw(index)
        elif shape == "vector":
            cols = np.array(data.draw(vector))  # spans several 16-wide chunks
            rows = np.array(
                data.draw(st.lists(index, min_size=len(cols), max_size=len(cols)))
            )
        elif shape == "outer":
            rows = np.array(data.draw(vector))[:, None]
            cols = np.array(data.draw(vector))[None, :]
        else:
            rows = cols = np.array(data.draw(vector))
        assert np.array_equal(spilled6.gather_rtt(rows, cols), dense.rtt_ms[rows, cols])
        assert np.array_equal(spilled6.gather_loss(rows, cols), dense.loss[rows, cols])
        for i, j in zip(*(np.ravel(a) for a in np.broadcast_arrays(rows, cols))):
            assert spilled6.rtt_cell(i, j) == dense.rtt_ms[i, j]
            assert float(spilled6.gather_loss(i, j)) == dense.loss[i, j]

    def test_read_faults_in_exactly_the_chunk_it_touches(self, world6, tmp_path):
        dense = world6[2]
        rows, cols = np.arange(dense.count)[:, None], np.array([17, 20, 31])[None, :]
        with obs.observe():
            first = _view(world6, tmp_path)
            total = len(first.store.starts())
            assert total > 1
            got = first.gather_rtt(rows, cols)
            assert np.array_equal(got, dense.rtt_ms[rows, cols])
            assert first.store.chunk_count() == (1, total)
            assert obs.counter("columns.chunks.miss").value == 1
        stamps = {p.name: p.stat().st_mtime_ns for p in tmp_path.glob("*.npy")}
        with obs.observe():
            second = _view(world6, tmp_path)
            assert np.array_equal(second.gather_rtt(rows, cols), got)
            assert obs.counter("columns.chunks.miss").value == 0
            assert obs.counter("columns.chunks.hit").value == 1
        assert {p.name: p.stat().st_mtime_ns for p in tmp_path.glob("*.npy")} == stamps

    def test_reads_never_poll_the_store(self, world6, spilled6, monkeypatch):
        polls = []
        for name in ("has", "complete"):
            monkeypatch.setattr(
                ColumnStore, name, lambda self, *a, _name=name: polls.append(_name)
            )
        rng = np.random.default_rng(0)
        n = spilled6.count
        for _ in range(1000):
            rows, cols = rng.integers(0, n, (2, 5))
            spilled6.gather_rtt(rows, cols)
            spilled6.gather_loss(rows[:, None], cols[None, :])
            spilled6.rtt_cell(rows[0], cols[0])
            spilled6.gather_loss(rows[1], cols[1])
        assert polls == []

    def test_store_is_required(self, world6):
        scenario, clusters, _ = world6
        with pytest.raises(TypeError):
            VirtualMatrices(scenario.latency, clusters, chunk_columns=16)
        with pytest.raises(TypeError):
            VirtualMatrices(scenario.latency, clusters, chunk_columns=16, store=None)

    def test_store_geometry_must_match(self, world6, tmp_path):
        scenario, clusters, _ = world6
        narrow = ColumnStore(tmp_path / "a", key="k", n=len(clusters), chunk=8)
        with pytest.raises(ValueError, match="chunk width"):
            VirtualMatrices(scenario.latency, clusters, chunk_columns=16, store=narrow)
        short = ColumnStore(tmp_path / "b", key="k", n=len(clusters) - 1, chunk=16)
        with pytest.raises(ValueError, match="n="):
            VirtualMatrices(scenario.latency, clusters, chunk_columns=16, store=short)


# -- one canonical policy signature --------------------------------------------


class TestRelayPolicyConformance:
    @pytest.fixture(scope="class")
    def scenario(self):
        return tiny_scenario(seed=6)

    @pytest.fixture(scope="class")
    def policies(self, scenario):
        return default_policies(scenario)

    def test_full_roster_satisfies_protocol(self, policies):
        assert [p.name for p in policies] == list(METHOD_NAMES)
        for policy in policies:
            assert isinstance(policy, RelayPolicy)

    def test_session_objects_and_tuples_agree(self, scenario, policies):
        workload = generate_workload(scenario, 300, seed=1, latent_target=5)
        latent = workload.latent()[:5]
        assert latent
        world = scenario.matrix_view()
        pairs = [(s.caller_cluster, s.callee_cluster) for s in latent]
        ids = [s.session_id for s in latent]
        for policy in policies:
            from_sessions = policy.evaluate_sessions(world, latent)
            from_tuples = policy.evaluate_sessions(world, pairs, session_ids=ids)
            assert from_sessions == from_tuples, policy.name

    def test_one_pair_batch_yields_one_result(self, scenario, policies):
        world = scenario.matrix_view()
        for policy in policies:
            out = policy.evaluate_sessions(world, [(0, 1)])
            assert len(out) == 1

    def test_mismatched_ids_rejected(self, scenario, policies):
        world = scenario.matrix_view()
        with pytest.raises(ConfigurationError):
            policies[0].evaluate_sessions(world, [(0, 1)], session_ids=[1, 2])
