"""Tests for the parallel/cached evaluation substrate.

Covers the three pillars added for fast repeated evaluation:

- fork-pool matrix assembly is *bit-for-bit* identical to the serial
  reference path;
- the content-addressed scenario cache round-trips a world exactly,
  treats a damaged entry as a miss, never serves derived (subsampled /
  measured-view) worlds, and changes nothing a run measures;
- the vectorized ``evaluate_sessions`` batch API agrees with the
  per-session ``evaluate_session`` loop for every baseline method.
"""

import dataclasses
import json
import os

import numpy as np
import pytest

from repro import obs
from repro.baselines import (
    BaselineConfig,
    DEDIMethod,
    MIXMethod,
    OPTMethod,
    RANDMethod,
)
from repro.measurement.matrix import compute_delegate_matrices
from repro.scenario import (
    ScenarioConfig,
    build_scenario,
    subsample_scenario,
    tiny_scenario,
)
from repro.storage import SCHEMA_VERSION, ScenarioCache, scenario_cache_key
from repro.storage.cache import CACHE_DIR_ENV, resolve_cache_dir
from repro.util import chunked, plan_chunks, resolve_workers, shared_ndarray
from repro.util.parallel import WORKERS_ENV, run_forked
from tests.oracles import evaluate_session, scalar_delegate_matrices


@pytest.fixture(scope="module")
def scenario():
    return tiny_scenario(seed=11)


# -- worker resolution ---------------------------------------------------------


class TestResolveWorkers:
    def test_explicit_value(self):
        assert resolve_workers(3) == 3

    def test_none_defaults_to_serial(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert resolve_workers(None) == 1

    def test_none_reads_env(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "5")
        assert resolve_workers(None) == 5

    def test_zero_means_all_cpus(self):
        assert resolve_workers(0) == (os.cpu_count() or 1)

    def test_garbage_env_is_rejected(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "not-a-number")
        with pytest.raises(ValueError):
            resolve_workers(None)


class TestChunked:
    def test_covers_all_items_in_order(self):
        items = list(range(17))
        chunks = chunked(items, 4)
        assert [x for chunk in chunks for x in chunk] == items

    def test_no_empty_chunks(self):
        assert all(chunked(list(range(3)), 8))

    def test_empty_input(self):
        assert chunked([], 4) == []


class TestPlanChunks:
    def test_covers_all_items_in_order(self):
        costs = [5.0, 1.0, 1.0, 1.0, 9.0, 2.0, 2.0]
        chunks = plan_chunks(costs, 3)
        assert [i for chunk in chunks for i in chunk] == list(range(len(costs)))
        assert all(chunks)

    def test_balances_cost_not_length(self):
        # One huge item followed by many tiny ones: length-balanced
        # chunking would put the huge item with a third of the tail;
        # cost-balanced chunking isolates it.
        costs = [90.0] + [1.0] * 9
        chunks = plan_chunks(costs, 3)
        assert chunks[0] == [0]

    def test_bounded_imbalance(self):
        rng = np.random.default_rng(2)
        costs = rng.uniform(0.5, 20.0, 97)
        chunk_count = 8
        chunks = plan_chunks(list(costs), chunk_count)
        total = float(costs.sum())
        worst = max(float(costs[chunk].sum()) for chunk in chunks)
        # No chunk exceeds its fair share by more than one item's cost.
        assert worst <= total / chunk_count + float(costs.max())

    def test_more_chunks_than_items(self):
        chunks = plan_chunks([1.0, 1.0], 8)
        assert chunks == [[0], [1]]

    def test_zero_total_cost_falls_back_to_length_balance(self):
        assert plan_chunks([0.0] * 6, 3) == chunked(list(range(6)), 3)

    def test_empty_input(self):
        assert plan_chunks([], 4) == []

    def test_deterministic(self):
        costs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
        assert plan_chunks(costs, 3) == plan_chunks(costs, 3)


def _stamp_shared(indices):
    """Pool worker: write into the inherited shared array (no return)."""
    array = _SHARED_TARGET[0]
    for i in indices:
        array[i] = i * 10.0
    return len(indices)


_SHARED_TARGET = [None]


class TestSharedNdarray:
    def test_shape_dtype_fill(self):
        array = shared_ndarray((3, 4), np.float64, fill=2.5)
        assert array.shape == (3, 4)
        assert array.dtype == np.float64
        assert np.all(array == 2.5)

    def test_backed_by_shared_mmap(self):
        import mmap as mmap_module

        array = shared_ndarray((2, 2), np.int32)
        base = array
        while base is not None and not isinstance(base, mmap_module.mmap):
            if isinstance(base, memoryview):
                base = base.obj
            else:
                base = getattr(base, "base", None)
        assert isinstance(base, mmap_module.mmap)

    def test_fork_children_write_through(self):
        if not hasattr(os, "fork"):
            pytest.skip("fork unavailable")
        array = shared_ndarray((8,), np.float64, fill=-1.0)
        _SHARED_TARGET[0] = array
        try:
            counts = run_forked(
                _stamp_shared, [[0, 1, 2, 3], [4, 5, 6, 7]], processes=2
            )
        finally:
            _SHARED_TARGET[0] = None
        assert counts == [4, 4]
        assert np.array_equal(array, np.arange(8) * 10.0)


# -- parallel parity -----------------------------------------------------------


class TestMatrixParallelParity:
    def test_bit_identical_to_serial(self, scenario):
        serial = compute_delegate_matrices(
            scenario.latency, scenario.clusters, workers=1
        )
        parallel = compute_delegate_matrices(
            scenario.latency, scenario.clusters, workers=2
        )
        assert np.array_equal(serial.rtt_ms, parallel.rtt_ms)
        assert np.array_equal(serial.loss, parallel.loss)
        assert np.array_equal(serial.as_hops, parallel.as_hops)
        assert serial.prefixes == parallel.prefixes

    def test_lazy_property_respects_config_workers(self):
        world = build_scenario(dataclasses.replace(ScenarioConfig.preset("tiny", 11), workers=2))
        reference = tiny_scenario(seed=11)
        assert np.array_equal(world.matrices.rtt_ms, reference.matrices.rtt_ms)

    def test_matches_scalar_oracle(self, scenario):
        flat = compute_delegate_matrices(scenario.latency, scenario.clusters)
        obj = scalar_delegate_matrices(scenario.latency, scenario.clusters)
        assert np.array_equal(flat.rtt_ms, obj.rtt_ms)
        assert np.array_equal(flat.loss, obj.loss)

    def test_parallel_run_records_chunk_stats(self, scenario):
        with obs.observe() as run:
            compute_delegate_matrices(scenario.latency, scenario.clusters, workers=2)
            stats = run.annotations.get("parallel")
        assert stats is not None
        assert stats["workers"] == 2
        assert sum(stats["chunk_sizes"]) == scenario.matrices.count
        assert len(stats["chunk_seconds"]) == len(stats["chunk_sizes"])
        assert all(s >= 0.0 for s in stats["chunk_seconds"])


# -- scenario cache ------------------------------------------------------------


class TestScenarioCacheKey:
    def test_stable_across_runtime_knobs(self):
        base = ScenarioConfig.preset("tiny", 3)
        tuned = dataclasses.replace(base, workers=8, cache_dir="/somewhere")
        assert scenario_cache_key(base) == scenario_cache_key(tuned)

    def test_differs_across_seeds(self):
        assert scenario_cache_key(ScenarioConfig.preset("tiny", 1)) != scenario_cache_key(ScenarioConfig.preset("tiny", 2))

    def test_differs_across_shape(self):
        base = ScenarioConfig.preset("tiny", 1)
        bigger = dataclasses.replace(base, vantage_count=base.vantage_count + 1)
        assert scenario_cache_key(base) != scenario_cache_key(bigger)


class TestScenarioCache:
    def test_round_trip_is_identical(self, tmp_path):
        config = dataclasses.replace(ScenarioConfig.preset("tiny", 7), cache_dir=str(tmp_path))
        cold = build_scenario(config)
        entry_dir = tmp_path / scenario_cache_key(config)
        assert (entry_dir / "scenario.pkl.gz").exists()
        assert (entry_dir / "matrices.npz").exists()
        assert (entry_dir / "meta.json").exists()

        warm = build_scenario(config)
        assert np.array_equal(cold.matrices.rtt_ms, warm.matrices.rtt_ms)
        assert np.array_equal(cold.matrices.loss, warm.matrices.loss)
        assert np.array_equal(cold.matrices.as_hops, warm.matrices.as_hops)
        assert [h.ip for h in cold.population.hosts] == [
            h.ip for h in warm.population.hosts
        ]
        assert len(cold.clusters.all_clusters()) == len(warm.clusters.all_clusters())
        assert warm.config == config

    @pytest.mark.parametrize(
        "name, damage",
        [
            ("scenario.pkl.gz", "garbage"),
            ("scenario.pkl.gz", "truncated"),
            ("matrices.npz", "garbage"),
            ("matrices.npz", "truncated"),      # was: zipfile.BadZipFile
            ("matrices.npz", "foreign-version"),  # was: ReproError
            ("matrices.npz", "missing-array"),    # was: KeyError
            ("meta.json", "truncated"),
            ("meta.json", "foreign-schema"),
        ],
    )
    def test_corrupt_entry_is_a_miss(self, tmp_path, name, damage):
        config = dataclasses.replace(ScenarioConfig.preset("tiny", 7), cache_dir=str(tmp_path))
        intact = build_scenario(config)
        path = tmp_path / scenario_cache_key(config) / name
        if damage == "garbage":
            path.write_bytes(b"not what this file holds")
        elif damage == "truncated":
            path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        elif damage == "foreign-schema":
            path.write_text(json.dumps({"schema": SCHEMA_VERSION + 1}))
        else:
            with np.load(path) as archive:
                arrays = dict(archive)
            if damage == "foreign-version":
                arrays["version"] = arrays["version"] + 1
            else:
                del arrays["rtt_ms"]
            np.savez_compressed(path, **arrays)
        with obs.observe() as run:
            rebuilt = build_scenario(config)  # must rebuild, not crash
            assert run.registry.counter_value("cache.scenario.misses") == 1
        assert np.array_equal(rebuilt.matrices.rtt_ms, intact.matrices.rtt_ms)
        assert ScenarioCache(tmp_path).load(config) is not None  # and the entry is whole again

    def test_env_var_selects_cache_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        assert resolve_cache_dir(None) == tmp_path
        build_scenario(ScenarioConfig.preset("tiny", 7))
        assert (tmp_path / scenario_cache_key(ScenarioConfig.preset("tiny", 7))).is_dir()

    def test_no_cache_dir_means_no_caching(self, monkeypatch):
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        assert resolve_cache_dir(None) is None

    def test_refuses_derived_scenarios(self, scenario, tmp_path):
        cache = ScenarioCache(str(tmp_path))
        sub = subsample_scenario(scenario, 0.5, seed=1)
        assert not sub.cacheable
        with pytest.raises(ValueError):
            cache.save(sub)
        measured = scenario.with_measured_matrices(seed=1)
        assert not measured.cacheable
        with pytest.raises(ValueError):
            cache.save(measured)

    def test_cache_leaves_the_traced_run_unchanged(self, tmp_path, capsys):
        """``--cache-dir`` holds the world and its matrices, nothing a
        run measures: a traced chaos run writes the same ``traces.jsonl``
        (every ``close_set.build`` span under the call that needed the
        set) with the cache unset, cold and warm."""
        from repro.cli import main

        def traced(name, *extra):
            obs_dir = tmp_path / name
            rc = main([
                "chaos", "--scale", "tiny", "--latent", "10", "--sessions", "30",
                "--trace", "--obs-dir", str(obs_dir), *extra,
            ])
            assert rc == 0
            capsys.readouterr()
            return (obs_dir / "traces.jsonl").read_bytes()

        cache = ("--cache-dir", str(tmp_path / "cache"))
        plain, cold, warm = traced("plain"), traced("cold", *cache), traced("warm", *cache)
        assert plain.count(b'"close_set.build"') > 1
        assert plain == cold == warm
        assert not list((tmp_path / "cache").rglob("close_sets-*"))

    def test_schema_version_guards_key(self):
        # The schema version participates in the key material: bumping it
        # must invalidate every existing entry.  (Indirect check: the key
        # derives from a payload that includes the current version.)
        assert isinstance(SCHEMA_VERSION, int)
        key = scenario_cache_key(ScenarioConfig.preset("tiny", 0))
        assert len(key) == 20
        assert key == scenario_cache_key(ScenarioConfig.preset("tiny", 0))


# -- batch evaluation parity ---------------------------------------------------


def _some_pairs(matrices, count=12, seed=5):
    rng = np.random.default_rng(seed)
    pairs = []
    while len(pairs) < count:
        a, b = (int(x) for x in rng.integers(0, matrices.count, 2))
        if a != b:
            pairs.append((a, b))
    return pairs


def _assert_results_equal(batch, loop):
    assert len(batch) == len(loop)
    for got, want in zip(batch, loop):
        assert got.method == want.method
        assert got.quality_paths == want.quality_paths
        assert got.messages == want.messages
        assert got.probed_nodes == want.probed_nodes
        if want.best_rtt_ms is None:
            assert got.best_rtt_ms is None
        else:
            assert got.best_rtt_ms == pytest.approx(want.best_rtt_ms)


class TestBatchEvaluationParity:
    @pytest.fixture(scope="class")
    def world(self, scenario):
        return scenario.matrices, scenario.topology.graph

    def _check(self, engine, matrices):
        pairs = _some_pairs(matrices)
        session_ids = [100 + k for k in range(len(pairs))]
        batch = engine.evaluate_sessions(matrices, pairs, session_ids=session_ids)
        loop = [
            evaluate_session(engine, matrices, a, b, sid)
            for (a, b), sid in zip(pairs, session_ids)
        ]
        _assert_results_equal(batch, loop)

    def test_opt(self, world):
        matrices, _ = world
        self._check(OPTMethod(BaselineConfig()), matrices)

    def test_dedi(self, world):
        matrices, graph = world
        self._check(DEDIMethod(graph, BaselineConfig()), matrices)

    def test_rand(self, world):
        matrices, _ = world
        self._check(RANDMethod(BaselineConfig()), matrices)

    def test_mix(self, world):
        matrices, graph = world
        self._check(MIXMethod(graph, BaselineConfig()), matrices)

    def test_default_session_ids(self, world):
        matrices, _ = world
        engine = RANDMethod(BaselineConfig())
        pairs = _some_pairs(matrices, count=4)
        batch = engine.evaluate_sessions(matrices, pairs)
        loop = [
            evaluate_session(engine, matrices, a, b, k)
            for k, (a, b) in enumerate(pairs)
        ]
        _assert_results_equal(batch, loop)

    def test_empty_batch(self, world):
        matrices, _ = world
        assert OPTMethod(BaselineConfig()).evaluate_sessions(matrices, []) == []
