"""Micro-benchmarks of the hot substrate paths (true pytest-benchmark
timings, multiple rounds): prefix-trie LPM, policy-tree construction,
valley-free BFS, delegate-matrix assembly (serial and parallel), batch
session evaluation, and E-model scoring."""

import os
import time

import numpy as np

from repro.bgp.routing import PolicyRouter
from repro.core import ASAPConfig
from repro.core.close_cluster import construct_close_cluster_set
from repro.measurement.matrix import compute_delegate_matrices
from repro.netaddr import IPv4Address
from repro.voip import EModel


def test_bench_prefix_trie_lpm(benchmark, eval_scenario):
    table = eval_scenario.prefix_table
    ips = [h.ip for h in eval_scenario.population.hosts[:2000]]

    def lookup_all():
        hits = 0
        for ip in ips:
            if table.lookup(ip) is not None:
                hits += 1
        return hits

    hits = benchmark(lookup_all)
    assert hits == len(ips)


def test_bench_policy_tree_build(benchmark, eval_scenario):
    graph = eval_scenario.topology.graph
    stubs = [a for a in graph.ases()][-50:]
    state = {"i": 0}
    # One router (its graph export is made once, outside the timing); the
    # one-entry cache never hides the work: consecutive destinations differ.
    router = PolicyRouter(graph, cache_size=1)
    router.tree(stubs[-1])

    def build_tree():
        dst = stubs[state["i"] % len(stubs)]
        state["i"] += 1
        return router.tree(dst)

    tree = benchmark(build_tree)
    assert np.count_nonzero(tree.distance >= 0) > 0.5 * len(graph)


def test_bench_valley_free_ball(benchmark, eval_scenario):
    graph = eval_scenario.topology.graph
    start = eval_scenario.topology.stub_ases()[0]
    ball = benchmark(lambda: graph.valley_free_ball(start, 4))
    assert len(ball) > 1


def test_bench_close_set_construction(benchmark, eval_scenario):
    matrices = eval_scenario.matrices
    clusters_by_as = {}
    for idx, asn in enumerate(matrices.asn_of):
        clusters_by_as.setdefault(int(asn), []).append(idx)
    own = 0
    own_as = int(matrices.asn_of[own])

    def lat(a, b):
        value = float(matrices.rtt_ms[a, b])
        return value if np.isfinite(value) else None

    def loss(a, b):
        return float(matrices.loss[a, b])

    result = benchmark(
        lambda: construct_close_cluster_set(
            own,
            own_as,
            eval_scenario.protocol_graph,
            lambda asn: clusters_by_as.get(asn, []),
            lat,
            loss,
            ASAPConfig(k_hops=4),
        )
    )
    assert len(result) >= 1


def test_bench_delegate_matrix(benchmark, eval_scenario):
    # Matrix assembly over a subset of clusters (full matrix is the
    # session fixture's job; this measures the per-destination walks).
    from repro.scenario import subsample_scenario

    small = subsample_scenario(eval_scenario, 0.15, seed=0)
    matrices = benchmark.pedantic(
        lambda: compute_delegate_matrices(small.latency, small.clusters),
        rounds=1,
        iterations=1,
    )
    assert matrices.count == len(small.clusters)


def test_bench_matrix_parallel_vs_serial(eval_scenario):
    """Serial vs all-CPU matrix assembly on a real scenario: bit-identical
    output, and faster on multi-CPU hardware.  (The committed baseline
    JSON is written by ``test_matrix_scale.py``; this guards the full
    ``compute_delegate_matrices`` path end to end.)"""
    from repro.measurement import matrix as matrix_module
    from repro.scenario import subsample_scenario

    small = subsample_scenario(eval_scenario, 0.25, seed=0)
    workers = os.cpu_count() or 1

    # Untimed warmup: the latency model memoizes policy trees on first
    # use, and both timed runs (plus fork children, via copy-on-write)
    # must see the same warmed state for the comparison to be fair.
    compute_delegate_matrices(small.latency, small.clusters, workers=1)

    t0 = time.perf_counter()
    serial = compute_delegate_matrices(small.latency, small.clusters, workers=1)
    serial_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    parallel = compute_delegate_matrices(
        small.latency, small.clusters, workers=max(2, workers)
    )
    parallel_s = time.perf_counter() - t0

    # Bit-for-bit parity is unconditional — the parallel path is only a
    # scheduling change, never a numeric one.
    assert np.array_equal(serial.rtt_ms, parallel.rtt_ms)
    assert np.array_equal(serial.loss, parallel.loss)
    assert np.array_equal(serial.as_hops, parallel.as_hops)

    # The run leaves its chunk plan behind for the scale benchmarks.
    stats = matrix_module.last_parallel_stats()
    assert stats is not None
    assert sum(stats["chunk_sizes"]) == serial.count

    speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")
    # Speedup is only attainable with real cores behind the pool; on a
    # single-CPU machine the fork overhead makes parallel a wash, so the
    # throughput assertion is conditional on the hardware.
    if workers >= 2:
        assert speedup >= 1.0, (serial_s, parallel_s, stats)


def test_bench_batch_session_eval(benchmark, eval_scenario, workload):
    """Vectorized evaluate_sessions over every latent pair (the section 7
    inner loop) for the costliest baseline, DEDI."""
    from repro.baselines import BaselineConfig, DEDIMethod

    latent = workload.latent(300.0)
    pairs = [(s.caller_cluster, s.callee_cluster) for s in latent]
    session_ids = [s.session_id for s in latent]
    matrices = eval_scenario.matrices
    engine = DEDIMethod(eval_scenario.topology.graph, BaselineConfig())
    results = benchmark(
        lambda: engine.evaluate_sessions(matrices, pairs, session_ids=session_ids)
    )
    assert len(results) == len(pairs)
    # Parity with the per-session reference loop on a spot-checked slice.
    for k in (0, len(pairs) // 2, len(pairs) - 1):
        loop = engine.evaluate_session(matrices, *pairs[k], session_ids[k])
        assert results[k].quality_paths == loop.quality_paths
        assert results[k].best_rtt_ms == loop.best_rtt_ms


def test_bench_emodel(benchmark):
    model = EModel()
    rtts = np.linspace(20.0, 900.0, 5000)

    def score_all():
        return sum(model.mos_from_rtt(r, 0.005) for r in rtts)

    total = benchmark(score_all)
    assert total > 0
