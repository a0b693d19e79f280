"""Contiguous array exports of the object world.

Two export products live here:

- :class:`GraphCSR` — the annotated AS graph's valley-free step tables
  (providers / customers / peers / siblings) in CSR form over a dense
  int index, for the vectorized close-set BFS;
- :class:`WorldArrays` — the cluster book-keeping (cluster→AS index,
  access delays, sizes, clusters-grouped-by-AS) plus the latency model's
  per-AS costs and per-link edge costs as flat arrays, for the
  vectorized matrix fill.

Both are pure *exports*: every number is produced by the same object
code (``LatencyModel.link_delay_ms``, ``NetworkConditions.loss_of``, …)
that the reference paths call, which is the first half of the
bit-identical guarantee — the flat paths then combine those numbers with
the exact same IEEE operation order as the scalar reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.bgp.asgraph import ASGraph
from repro.errors import MeasurementError
from repro.measurement.latency import LatencyModel


def csr_gather(indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Concatenate the CSR adjacency lists of ``rows`` (vectorized).

    Equivalent to ``np.concatenate([indices[indptr[r]:indptr[r+1]] for r
    in rows])`` without the python loop: the classic repeat/cumsum ragged
    gather.
    """
    if len(rows) == 0:
        return indices[:0]
    counts = indptr[rows + 1] - indptr[rows]
    total = int(counts.sum())
    if total == 0:
        return indices[:0]
    starts = indptr[rows]
    exclusive = np.concatenate(([0], np.cumsum(counts)[:-1]))
    positions = np.repeat(starts - exclusive, counts) + np.arange(total)
    return indices[positions]


def bucket_csr(count: int, lists: Dict[int, np.ndarray]) -> tuple:
    """Pack per-row neighbor arrays into (indptr, indices)."""
    counts = np.zeros(count, dtype=np.int64)
    for row, neighbors in lists.items():
        counts[row] = len(neighbors)
    indptr = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    indices = np.empty(int(indptr[-1]), dtype=np.int64)
    for row, neighbors in lists.items():
        indices[indptr[row] : indptr[row + 1]] = neighbors
    return indptr, indices


@dataclass
class GraphCSR:
    """Valley-free step tables of an :class:`ASGraph` in CSR form.

    Node ``i`` is ``as_ids[i]`` (ascending ASN order); each relationship
    bucket's neighbor lists are sorted, so every traversal over this
    structure is order-independent by construction.
    """

    as_ids: np.ndarray          # (V,) int64, sorted ASNs
    index_of: Dict[int, int]
    providers_indptr: np.ndarray
    providers_indices: np.ndarray
    customers_indptr: np.ndarray
    customers_indices: np.ndarray
    peers_indptr: np.ndarray
    peers_indices: np.ndarray
    siblings_indptr: np.ndarray
    siblings_indices: np.ndarray
    neighbors_indptr: np.ndarray
    neighbors_indices: np.ndarray

    @property
    def count(self) -> int:
        return len(self.as_ids)

    @classmethod
    def from_asgraph(cls, graph: ASGraph) -> "GraphCSR":
        as_ids = np.array(graph.ases(), dtype=np.int64)
        index_of = {int(asn): i for i, asn in enumerate(as_ids)}
        count = len(as_ids)

        def bucket(getter) -> tuple:
            lists = {}
            for asn, row in index_of.items():
                members = getter(asn)
                if members:
                    lists[row] = np.array(
                        sorted(index_of[m] for m in members), dtype=np.int64
                    )
            return bucket_csr(count, lists)

        providers = bucket(graph.providers)
        customers = bucket(graph.customers)
        peers = bucket(graph.peers)
        siblings = bucket(graph.siblings)
        neighbors = bucket(graph.neighbors)
        return cls(
            as_ids=as_ids,
            index_of=index_of,
            providers_indptr=providers[0],
            providers_indices=providers[1],
            customers_indptr=customers[0],
            customers_indices=customers[1],
            peers_indptr=peers[0],
            peers_indices=peers[1],
            siblings_indptr=siblings[0],
            siblings_indices=siblings[1],
            neighbors_indptr=neighbors[0],
            neighbors_indices=neighbors[1],
        )


@dataclass
class WorldArrays:
    """The measured world in flat int-indexed form.

    The AS universe is the union of the latency model's *effective*
    routing graph (failed ASes already removed) and every cluster's ASN;
    ``as_ids`` is that universe sorted ascending and all ``*_idx``
    fields index into it.  Per-link edge costs are the model's own
    ``link_delay_ms`` values keyed by ``src_idx * V + dst_idx`` (both
    directions), so a flat gather reads exactly the float the scalar
    path would.
    """

    as_ids: np.ndarray           # (V,) int64, sorted universe ASNs
    as_index_of: Dict[int, int]
    loss_of: np.ndarray          # (V,) float — conditions.loss_of per AS
    node_cost: np.ndarray        # (V,) float — model.node_cost_ms per AS
    endpoint_cost: np.ndarray    # (V,) float — model.endpoint_cost_ms per AS
    edge_keys: np.ndarray        # (2E,) int64 sorted, key = u * V + v
    edge_cost: np.ndarray        # (2E,) float aligned with edge_keys
    cluster_as_idx: np.ndarray   # (N,) int64 — universe index of each cluster's AS
    access_ms: np.ndarray        # (N,) float — delegate access delay
    sizes: np.ndarray            # (N,) int64 — online hosts per cluster
    rows_indptr: np.ndarray      # (V+1,) CSR: cluster rows grouped by AS index
    rows_indices: np.ndarray     # (N,) ascending within each AS

    @property
    def as_count(self) -> int:
        return len(self.as_ids)

    @property
    def cluster_count(self) -> int:
        return len(self.cluster_as_idx)

    def edge_cost_of(self, src_idx: np.ndarray, dst_idx: np.ndarray) -> np.ndarray:
        """Edge costs for aligned (src, dst) index pairs (must exist)."""
        keys = src_idx * np.int64(self.as_count) + dst_idx
        positions = np.searchsorted(self.edge_keys, keys)
        if np.any(positions >= len(self.edge_keys)) or np.any(
            self.edge_keys[positions] != keys
        ):
            raise MeasurementError("routing tree crossed an edge missing from the graph")
        return self.edge_cost[positions]

    def rows_of_as_idx(self, as_idx: int) -> np.ndarray:
        """Matrix rows of the clusters hosted by universe AS ``as_idx``."""
        return self.rows_indices[self.rows_indptr[as_idx] : self.rows_indptr[as_idx + 1]]

    @classmethod
    def from_clusters(cls, model: LatencyModel, cluster_list: Sequence) -> "WorldArrays":
        """Export from a list of :class:`~repro.topology.clustering.Cluster`."""
        asns = np.array([c.asn for c in cluster_list], dtype=np.int64)
        delegates = [c.delegate for c in cluster_list]
        if any(d is None for d in delegates):
            raise MeasurementError("every cluster must have a delegate")
        access = np.array([d.access_delay_ms for d in delegates], dtype=float)
        sizes = np.array([len(c) for c in cluster_list], dtype=np.int64)
        return cls.from_arrays(model, asns, access, sizes)

    @classmethod
    def from_arrays(
        cls,
        model: LatencyModel,
        cluster_asns: np.ndarray,
        access_ms: np.ndarray,
        sizes: np.ndarray,
    ) -> "WorldArrays":
        """Export from raw cluster arrays (used by the scale benchmark)."""
        graph = model.router.graph
        universe = sorted(set(graph.ases()) | set(int(a) for a in cluster_asns))
        as_ids = np.array(universe, dtype=np.int64)
        as_index_of = {int(asn): i for i, asn in enumerate(as_ids)}
        count = len(as_ids)

        loss_of = np.array(
            [model.conditions.loss_of(int(a)) for a in as_ids], dtype=float
        )
        node_cost = np.array([model.node_cost_ms(int(a)) for a in as_ids], dtype=float)
        endpoint_cost = np.array(
            [model.endpoint_cost_ms(int(a)) for a in as_ids], dtype=float
        )

        # Per-link costs: the model's own (cached, seed-deterministic)
        # link_delay_ms per undirected edge, stored for both directions.
        keys: List[int] = []
        costs: List[float] = []
        for a in graph.ases():
            ia = as_index_of[a]
            for b in graph.neighbors(a):
                if b <= a:
                    continue
                ib = as_index_of[b]
                cost = model.link_delay_ms(a, b)
                keys.append(ia * count + ib)
                costs.append(cost)
                keys.append(ib * count + ia)
                costs.append(cost)
        edge_keys = np.array(keys, dtype=np.int64)
        edge_cost = np.array(costs, dtype=float)
        order = np.argsort(edge_keys)
        edge_keys = edge_keys[order]
        edge_cost = edge_cost[order]

        cluster_as_idx = np.array(
            [as_index_of[int(a)] for a in cluster_asns], dtype=np.int64
        )
        rows_lists: Dict[int, List[int]] = {}
        for row, as_idx in enumerate(cluster_as_idx):
            rows_lists.setdefault(int(as_idx), []).append(row)
        rows_indptr, rows_indices = bucket_csr(
            count, {k: np.array(v, dtype=np.int64) for k, v in rows_lists.items()}
        )
        return cls(
            as_ids=as_ids,
            as_index_of=as_index_of,
            loss_of=loss_of,
            node_cost=node_cost,
            endpoint_cost=endpoint_cost,
            edge_keys=edge_keys,
            edge_cost=edge_cost,
            cluster_as_idx=cluster_as_idx,
            access_ms=np.asarray(access_ms, dtype=float),
            sizes=np.asarray(sizes, dtype=np.int64),
            rows_indptr=rows_indptr,
            rows_indices=rows_indices,
        )
