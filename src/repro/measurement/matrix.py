"""All-pairs cluster-delegate matrices: RTT, loss, and AS hop count.

This is the reproduction of the paper's measurement product (Fig. 1): a
pairwise latency benchmark between cluster delegates.  Everything in the
evaluation — session generation, relay path RTTs, quality-path counting —
is computed against these matrices, exactly as the paper's trace-driven
simulation replays its King measurements.

The computation exploits the policy-routing trees: for each destination
cluster's AS we walk every source AS's next-hop chain once with
memoization, so the full N×N matrix costs O(N·V) instead of O(N²·path).

Assembly exports the world once into contiguous arrays
(:mod:`repro.worldarrays`) and fills it with vectorized
per-destination-AS broadcasts; ``tests/oracles.py`` keeps the scalar
walk as the executable specification the parity tests compare against.

Destination columns are mutually independent, so assembly optionally
fans out over a fork-start process pool (``workers > 1``): columns are
grouped by destination AS (one tree resolution per AS total), chunks
are cost-balanced via :func:`repro.util.parallel.plan_chunks`, and
workers write their columns straight into fork-inherited shared-memory
arrays — no result pickling.  Output is bit-for-bit identical to the
serial path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import MeasurementError
from repro.netaddr import IPv4Address, IPv4Prefix
from repro.measurement.latency import LatencyModel
from repro.topology.clustering import Cluster, ClusterIndex
from repro.topology.population import Host
from repro.util.parallel import (
    fork_available,
    plan_chunks,
    resolve_workers,
    run_forked,
    shared_ndarray,
)
from repro.util.rng import derive_rng

UNREACHABLE = np.inf

#: Assembly statistics (chunk plan and per-chunk wall times) of every
#: parallel assembly this process ran, in order; each dict carries its
#: ``assembly`` index.  Private: read it through the obs registry
#: (``obs.annotations["parallel"]`` / the manifest ``parallel`` block),
#: :func:`last_parallel_stats` or :func:`parallel_stats_history`.
_PARALLEL_STATS_HISTORY: List[Dict] = []


def last_parallel_stats() -> Optional[Dict]:
    """Chunk plan and per-chunk wall times of the most recent parallel
    assembly in this process (``None`` if none ran).  Runs with
    observability enabled also record the same document in the run
    manifest's ``parallel`` block."""
    return _PARALLEL_STATS_HISTORY[-1] if _PARALLEL_STATS_HISTORY else None


def parallel_stats_history() -> List[Dict]:
    """All parallel assemblies this process ran, oldest first.

    Unlike :func:`last_parallel_stats` (latest only), the history
    survives repeated assemblies in one process — each entry carries an
    ``assembly`` sequence number matching its telemetry tags."""
    return list(_PARALLEL_STATS_HISTORY)


@dataclass
class DelegateMatrices:
    """Dense all-pairs measurements between cluster delegates.

    Row/column ``i`` corresponds to ``prefixes[i]``; ``rtt_ms`` is the
    round-trip latency (inf when unreachable), ``loss`` the one-way loss
    rate, ``as_hops`` the AS-level hop count (-1 when unreachable), and
    ``sizes`` the number of online hosts per cluster.
    """

    prefixes: List[IPv4Prefix]
    index_of: Dict[IPv4Prefix, int]
    asn_of: np.ndarray        # shape (N,), int
    sizes: np.ndarray         # shape (N,), int
    rtt_ms: np.ndarray        # shape (N, N), float, inf = unreachable
    loss: np.ndarray          # shape (N, N), float in [0, 1]
    as_hops: np.ndarray       # shape (N, N), int, -1 = unreachable

    @property
    def count(self) -> int:
        return len(self.prefixes)

    def index_of_host(self, clusters: ClusterIndex, host: Host) -> int:
        """Matrix index of the cluster containing ``host``."""
        cluster = clusters.cluster_of(host.ip)
        return self.index_of[cluster.prefix]

    def estimate_host_rtt(self, clusters: ClusterIndex, a: Host, b: Host) -> float:
        """Host-to-host RTT estimated by the delegate matrix entry —
        the paper's property (1) used throughout the evaluation."""
        return float(self.rtt_ms[self.index_of_host(clusters, a), self.index_of_host(clusters, b)])

    def one_hop_rtt(self, a: int, relay: int, b: int, relay_delay_rtt_ms: float = 40.0) -> float:
        """RTT of the a→relay→b overlay path at cluster granularity."""
        return float(self.rtt_ms[a, relay] + self.rtt_ms[relay, b] + relay_delay_rtt_ms)

    def two_hop_rtt(
        self, a: int, r1: int, r2: int, b: int, relay_delay_rtt_ms: float = 40.0
    ) -> float:
        """RTT of the a→r1→r2→b overlay path at cluster granularity."""
        return float(
            self.rtt_ms[a, r1]
            + self.rtt_ms[r1, r2]
            + self.rtt_ms[r2, b]
            + 2.0 * relay_delay_rtt_ms
        )

    def one_hop_path_loss(self, a: int, relay: int, b: int) -> float:
        """One-way loss of the relayed path (independent segments)."""
        return 1.0 - (1.0 - float(self.loss[a, relay])) * (1.0 - float(self.loss[relay, b]))

    # -- world-view protocol -------------------------------------------
    #
    # The streaming engine evaluates policies against a *world view*:
    # cell reads, fancy-index gathers, and per-column-block iteration.
    # Dense matrices implement the view trivially over the stored
    # arrays; ``repro.worldarrays.virtual.VirtualMatrices`` implements
    # the same surface without ever materializing N×N.

    def rtt_cell(self, i: int, j: int) -> float:
        """One RTT cell (same float the dense array holds)."""
        return float(self.rtt_ms[i, j])

    def loss_cell(self, i: int, j: int) -> float:
        """One loss cell (same float the dense array holds)."""
        return float(self.loss[i, j])

    def gather_rtt(self, rows, cols) -> np.ndarray:
        """``rtt_ms[rows, cols]`` with numpy broadcasting semantics."""
        return self.rtt_ms[rows, cols]

    def gather_loss(self, rows, cols) -> np.ndarray:
        """``loss[rows, cols]`` with numpy broadcasting semantics."""
        return self.loss[rows, cols]

    def iter_column_blocks(self, chunk: int = 256):
        """Yield ``(cols, rtt_block, loss_block, hops_block)`` over all
        destination columns in ascending order; blocks are (N, len(cols))
        contiguous copies, which numpy adds and reduces faster than views."""
        n = self.count
        for start in range(0, n, chunk):
            stop = min(start + chunk, n)
            blocks = (m[:, start:stop].copy() for m in (self.rtt_ms, self.loss, self.as_hops))
            yield (np.arange(start, stop, dtype=np.int64), *blocks)

    def finite_row_fractions(self) -> np.ndarray:
        """Per-row fraction of finite RTT entries (workload online test)."""
        return np.mean(np.isfinite(self.rtt_ms), axis=1)


#: Shared read-only state published for fork-start workers (see
#: :mod:`repro.util.parallel`); ``None`` outside a parallel assembly.
_ASSEMBLY_STATE: Optional[tuple] = None


def cluster_headers(cluster_list: Sequence[Cluster]):
    """Per-cluster header arrays shared by every matrix representation.

    Returns ``(prefixes, index_of, asn_of, sizes, access)`` — the
    book-keeping both :func:`compute_delegate_matrices` and the virtual
    (streamed) view build from the same cluster list, in the same order.
    """
    prefixes = [c.prefix for c in cluster_list]
    index_of = {p: i for i, p in enumerate(prefixes)}
    asn_of = np.array([c.asn for c in cluster_list], dtype=np.int64)
    sizes = np.array([len(c) for c in cluster_list], dtype=np.int64)
    delegates = [c.delegate for c in cluster_list]
    if any(d is None for d in delegates):
        raise MeasurementError("every cluster must have a delegate")
    access = np.array([d.access_delay_ms for d in delegates], dtype=float)
    return prefixes, index_of, asn_of, sizes, access


def compute_delegate_matrices(
    model: LatencyModel,
    clusters: ClusterIndex,
    workers: Optional[int] = None,
) -> DelegateMatrices:
    """Compute RTT / loss / hop matrices between all cluster delegates.

    ``workers`` controls the fan-out over destination clusters: ``1``
    (or ``None`` without ``$REPRO_WORKERS``) runs serially, ``<= 0``
    uses all CPUs, and any higher count chunks the destination columns
    across a fork-start process pool writing into shared memory.
    Output is identical bit-for-bit regardless of worker count.
    """
    from repro import obs
    from repro.worldarrays import FlatMatrixAssembler, WorldArrays

    cluster_list = clusters.all_clusters()
    if not cluster_list:
        raise MeasurementError("no clusters to measure")
    n = len(cluster_list)
    obs.gauge("matrix.clusters").set(n)
    prefixes, index_of, asn_of, sizes, access = cluster_headers(cluster_list)

    worker_count = resolve_workers(workers)
    parallel = worker_count > 1 and n > 1 and fork_available()

    if parallel:
        # Workers write their columns into these in place (fork children
        # inherit the mapping) — results never cross a pickle boundary.
        rtt = shared_ndarray((n, n), float, fill=UNREACHABLE)
        loss = shared_ndarray((n, n), float, fill=1.0)
        hops = shared_ndarray((n, n), np.int64, fill=-1)
    else:
        rtt = np.full((n, n), UNREACHABLE, dtype=float)
        loss = np.full((n, n), 1.0, dtype=float)
        hops = np.full((n, n), -1, dtype=np.int64)

    with obs.span("matrix.assemble", clusters=n, workers=worker_count):
        assembler = FlatMatrixAssembler(
            model, WorldArrays.from_clusters(model, cluster_list)
        )
        if parallel:
            chunks = _grouped_column_chunks(
                asn_of, worker_count * 4, tree_cost=float(len(model.router.graph))
            )
            global _ASSEMBLY_STATE
            _ASSEMBLY_STATE = (assembler, rtt, loss, hops)
            try:
                timings = run_forked(
                    _fill_shared_chunk, chunks, processes=worker_count
                )
            finally:
                _ASSEMBLY_STATE = None
            stats = {
                "assembly": len(_PARALLEL_STATS_HISTORY),
                "chunk_sizes": [len(c) for c in chunks],
                "chunk_seconds": [seconds for _, seconds in timings],
                "workers": worker_count,
            }
            _PARALLEL_STATS_HISTORY.append(stats)
            # The durable record: the obs registry (and hence the run
            # manifest's ``parallel`` block) rather than a module global.
            obs.annotate(parallel=stats)
            obs.gauge("matrix.parallel.workers").set(worker_count)
            timeline = obs.timeline()
            elapsed_ms = 0.0
            for index, seconds in enumerate(stats["chunk_seconds"]):
                obs.histogram("matrix.parallel.chunk_seconds").observe(seconds)
                if timeline:
                    # Wall timing, excluded from the byte-stability
                    # contract; stamped at the chunk's cumulative offset
                    # so the report renders a per-assembly timeline.
                    elapsed_ms += seconds * 1000.0
                    timeline.sample(
                        "matrix.chunk_seconds",
                        elapsed_ms,
                        seconds,
                        wall=True,
                        assembly=str(stats["assembly"]),
                        chunk=str(index),
                    )
        else:
            assembler.fill_columns(
                list(range(n)), rtt, loss, hops, positions=list(range(n))
            )

    # Diagonal / same-cluster entries: intra-cluster latency only.
    for i in range(n):
        asn = int(asn_of[i])
        intra = 2.0 * model.endpoint_cost_ms(asn) + 4.0 * access[i]
        rtt[i, i] = intra
        loss[i, i] = model.conditions.loss_of(asn)
        hops[i, i] = 0

    return DelegateMatrices(
        prefixes=prefixes,
        index_of=index_of,
        asn_of=asn_of,
        sizes=sizes,
        rtt_ms=rtt,
        loss=loss,
        as_hops=hops,
    )


def _grouped_column_chunks(
    asn_of: np.ndarray, chunk_count: int, tree_cost: float
) -> List[List[int]]:
    """Cost-balanced column chunks that never split a destination AS.

    Keeping an AS's columns together means each routing tree is resolved
    by exactly one worker (the old evenly-sliced chunks re-walked shared
    trees in several workers — a large part of the recorded parallel
    regression).  Per-group cost models one tree resolution plus the
    broadcast fill of the group's columns.
    """
    n = len(asn_of)
    groups: Dict[int, List[int]] = {}
    for j, asn in enumerate(asn_of):
        groups.setdefault(int(asn), []).append(j)
    ordered = [groups[asn] for asn in sorted(groups)]
    costs = [tree_cost + len(cols) * n for cols in ordered]
    plan = plan_chunks(costs, chunk_count)
    return [
        [j for group_index in chunk for j in ordered[group_index]] for chunk in plan
    ]


def _fill_shared_chunk(columns: List[int]) -> Tuple[int, float]:
    """Pool worker: fill one chunk of global columns into shared memory.

    Returns (column count, wall seconds) — the matrices themselves
    travel through the fork-inherited shared mapping, not the pickle
    channel.
    """
    assembler, rtt, loss, hops = _ASSEMBLY_STATE
    started = time.perf_counter()
    assembler.fill_columns(columns, rtt, loss, hops, positions=columns)
    return len(columns), time.perf_counter() - started


def apply_king_noise(
    matrices: DelegateMatrices,
    seed: int = 0,
    error_sigma: float = 0.06,
    non_response_rate: float = 0.10,
) -> DelegateMatrices:
    """A King-measured view of the matrices: multiplicative error plus a
    non-response fraction (non-responses become unreachable entries).

    The paper obtained responses for ~70% of delegate pairs; analyses ran
    on the responding subset.  Experiments that want measured rather than
    ground-truth inputs wrap the matrices with this."""
    if not 0.0 <= non_response_rate < 1.0:
        raise MeasurementError("non_response_rate must be in [0, 1)")
    rng = derive_rng(seed, "king-matrix")
    n = matrices.count
    factors = rng.lognormal(mean=0.0, sigma=error_sigma, size=(n, n))
    # Symmetric non-response mask: King fails per *pair* of DNS servers.
    fail = rng.random((n, n)) < non_response_rate
    fail = np.triu(fail, k=1)
    fail = fail | fail.T
    noisy = matrices.rtt_ms * factors
    noisy[fail] = UNREACHABLE
    np.fill_diagonal(noisy, np.diag(matrices.rtt_ms))
    return DelegateMatrices(
        prefixes=list(matrices.prefixes),
        index_of=dict(matrices.index_of),
        asn_of=matrices.asn_of.copy(),
        sizes=matrices.sizes.copy(),
        rtt_ms=noisy,
        loss=matrices.loss.copy(),
        as_hops=matrices.as_hops.copy(),
    )
