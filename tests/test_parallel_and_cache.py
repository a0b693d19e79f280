"""Tests for the cached evaluation substrate.

Covers the three pillars of fast repeated evaluation:

- matrix assembly is *bit-for-bit* identical to the scalar oracle;
- the content-addressed scenario cache round-trips a world exactly,
  keys it by a pinned digest, treats a damaged entry as a miss, never
  serves derived (subsampled / measured-view) worlds, and changes
  nothing a run measures;
- the vectorized ``evaluate_sessions`` batch API agrees with the
  per-session ``evaluate_session`` loop for every baseline method.
"""

import dataclasses
import json
import time

import numpy as np
import pytest

from repro import obs
from repro.baselines import (
    DEDIMethod,
    MIXMethod,
    OPTMethod,
    RANDMethod,
)
from repro.core import ASAPConfig, ASAPSystem
from repro.measurement.matrix import compute_delegate_matrices
from repro.scenario import (
    SCALES,
    ScenarioConfig,
    build_scenario,
    subsample_scenario,
)
from repro.storage import SCHEMA_VERSION, ScenarioCache, scenario_cache_key
from repro.storage.cache import CACHE_DIR_ENV, resolve_cache_dir
from tests.oracles import counter_value, evaluate_session, scalar_delegate_matrices, tiny_scenario


@pytest.fixture(scope="module")
def scenario():
    return tiny_scenario(seed=11)


# -- matrix fill ---------------------------------------------------------------


class TestMatrixParallelParity:
    """The one (serial) fill against the scalar oracle; the pooled
    fill this class also held until 1.20 is gone."""

    def test_matches_scalar_oracle(self, scenario):
        flat = compute_delegate_matrices(scenario.latency, scenario.clusters)
        obj = scalar_delegate_matrices(scenario.latency, scenario.clusters)
        assert np.array_equal(flat.rtt_ms, obj.rtt_ms)
        assert np.array_equal(flat.loss, obj.loss)


# -- scenario cache ------------------------------------------------------------

#: On-disk scenario caches and ``ColumnStore`` spill directories are
#: named by these keys: a config change that moves one orphans them.
PINNED_KEYS = {
    ("tiny", 0): "a0accf23fc7971cae088",
    ("tiny", 1): "6f79e4424715958c246b",
    ("small", 0): "8bf9f2c39acb9f01c692",
    ("small", 1): "f8e17f904d110acb6fc7",
    ("10k", 0): "226d55c08dcb20b6ca31",
    ("10k", 1): "4a850c24aa46c71563bb",
    ("evaluation", 0): "652985def29c06cdccb4",
    ("evaluation", 1): "4ab0de9dd53ee44cf83a",
    ("100k", 0): "f17429f5d4987febf695",
    ("100k", 1): "44ed1548e7b3e8c915a0",
    ("1m", 0): "12a92c400ef77edfcddd",
    ("1m", 1): "825919586240bbd363a7",
}


class TestScenarioCacheKey:
    def test_pins_cover_every_scale(self):
        assert {scale for scale, _ in PINNED_KEYS} == set(SCALES)

    @pytest.mark.parametrize("scale, seed", sorted(PINNED_KEYS))
    def test_key_is_pinned(self, scale, seed):
        key = scenario_cache_key(ScenarioConfig.preset(scale, seed))
        assert key == PINNED_KEYS[scale, seed]

    def test_stable_across_runtime_knobs(self):
        base = ScenarioConfig.preset("tiny", 3)
        tuned = dataclasses.replace(base, cache_dir="/somewhere")
        assert scenario_cache_key(base) == scenario_cache_key(tuned)

    def test_differs_across_seeds(self):
        assert scenario_cache_key(ScenarioConfig.preset("tiny", 1)) != scenario_cache_key(ScenarioConfig.preset("tiny", 2))

    def test_differs_across_shape(self):
        base = ScenarioConfig.preset("tiny", 1)
        bigger = dataclasses.replace(base, vantage_count=base.vantage_count + 1)
        assert scenario_cache_key(base) != scenario_cache_key(bigger)


class TestScenarioCache:
    def test_round_trip_is_identical(self, tmp_path):
        config = dataclasses.replace(ScenarioConfig.preset("small", 0), cache_dir=str(tmp_path))
        started = time.perf_counter()
        cold = build_scenario(config)
        cold.matrices
        cold_s = time.perf_counter() - started
        entry_dir = tmp_path / scenario_cache_key(config)
        assert (entry_dir / "scenario.pkl.gz").exists()
        assert (entry_dir / "matrices.npz").exists()
        assert (entry_dir / "meta.json").exists()

        started = time.perf_counter()
        warm = build_scenario(config)
        assert time.perf_counter() - started < cold_s
        assert np.array_equal(cold.matrices.rtt_ms, warm.matrices.rtt_ms)
        assert np.array_equal(cold.matrices.loss, warm.matrices.loss)
        assert np.array_equal(cold.matrices.as_hops, warm.matrices.as_hops)
        assert [h.ip for h in cold.population.hosts] == [
            h.ip for h in warm.population.hosts
        ]
        assert len(cold.clusters.all_clusters()) == len(warm.clusters.all_clusters())
        assert warm.config == config
        # The cache holds the world and its matrices, not close sets: the
        # system builds none on construction and leaves no file behind.
        with obs.observe() as run:
            ASAPSystem(warm, ASAPConfig())
            assert counter_value(run.registry, "close_set.built") == 0
        assert not list(tmp_path.rglob("close_sets-*"))

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
            assert counter_value(run.registry, "cache.scenario.misses") == 1
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
        self._check(OPTMethod(), matrices)

    def test_dedi(self, world):
        matrices, graph = world
        self._check(DEDIMethod(graph), matrices)

    def test_rand(self, world):
        matrices, _ = world
        self._check(RANDMethod(), matrices)

    def test_mix(self, world):
        matrices, graph = world
        self._check(MIXMethod(graph), matrices)

    def test_default_session_ids(self, world):
        matrices, _ = world
        engine = RANDMethod()
        pairs = _some_pairs(matrices, count=4)
        batch = engine.evaluate_sessions(matrices, pairs)
        loop = [
            evaluate_session(engine, matrices, a, b, k)
            for k, (a, b) in enumerate(pairs)
        ]
        _assert_results_equal(batch, loop)

    def test_empty_batch(self, world):
        matrices, _ = world
        assert OPTMethod().evaluate_sessions(matrices, []) == []
