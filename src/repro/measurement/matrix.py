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
(:mod:`repro.measurement.matrixfill`) and fills it with vectorized
per-destination-AS broadcasts; ``tests/oracles.py`` keeps the scalar
walk as the executable specification the parity tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro import obs
from repro.errors import MeasurementError
from repro.netaddr import IPv4Prefix
from repro.measurement.latency import RELAY_DELAY_RTT_MS, LatencyModel
from repro.measurement.matrixfill import FlatMatrixAssembler, WorldArrays
from repro.topology.clustering import Cluster, ClusterIndex
from repro.util.rng import derive_rng

UNREACHABLE = np.inf
#: Destination columns per block of :meth:`DelegateMatrices.iter_column_blocks`.
COLUMN_BLOCK = 256


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

    def one_hop_rtt(self, a: int, relay: int, b: int) -> float:
        """RTT of the a→relay→b overlay path at cluster granularity."""
        return float(self.rtt_ms[a, relay] + self.rtt_ms[relay, b] + RELAY_DELAY_RTT_MS)

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

    def gather_rtt(self, rows, cols) -> np.ndarray:
        """``rtt_ms[rows, cols]`` with numpy broadcasting semantics."""
        return self.rtt_ms[rows, cols]

    def gather_loss(self, rows, cols) -> np.ndarray:
        """``loss[rows, cols]`` with numpy broadcasting semantics."""
        return self.loss[rows, cols]

    def rows(self, sources) -> tuple:
        """``(rtt_ms[sources], loss[sources])``: each source's whole row,
        ``(S, N)`` new arrays in cluster order — the floats
        :meth:`gather_rtt` / :meth:`gather_loss` return for those cells."""
        return self.rtt_ms[sources], self.loss[sources]

    def iter_column_blocks(self):
        """Yield ``(cols, rtt_block, loss_block, hops_block)`` over all
        destination columns in ascending order; blocks are (N, len(cols))
        contiguous copies, which numpy adds and reduces faster than views."""
        n = self.count
        for start in range(0, n, COLUMN_BLOCK):
            stop = min(start + COLUMN_BLOCK, n)
            blocks = (m[:, start:stop].copy() for m in (self.rtt_ms, self.loss, self.as_hops))
            yield (np.arange(start, stop, dtype=np.int64), *blocks)

    def finite_row_fractions(self) -> np.ndarray:
        """Per-row fraction of finite RTT entries (workload online test)."""
        return np.mean(np.isfinite(self.rtt_ms), axis=1)


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
) -> DelegateMatrices:
    """Compute RTT / loss / hop matrices between all cluster delegates."""
    cluster_list = clusters.all_clusters()
    if not cluster_list:
        raise MeasurementError("no clusters to measure")
    n = len(cluster_list)
    obs.gauge("matrix.clusters").set(n)
    prefixes, index_of, asn_of, sizes, access = cluster_headers(cluster_list)

    rtt = np.full((n, n), UNREACHABLE, dtype=float)
    loss = np.full((n, n), 1.0, dtype=float)
    hops = np.full((n, n), -1, dtype=np.int64)

    with obs.span("matrix.assemble"):
        assembler = FlatMatrixAssembler(
            model, WorldArrays.from_clusters(model, cluster_list)
        )
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
