"""Contiguous array exports of the object world.

:class:`WorldArrays` is the cluster book-keeping (cluster→AS index,
access delays, sizes, clusters-grouped-by-AS) plus the latency model's
per-AS costs and per-link edge costs as flat arrays, for the vectorized
matrix fill.  The AS graph's own export, :class:`GraphCSR`, lives in
:mod:`repro.bgp.csr` (the routing-tree builder reads it, and this
module imports the latency model that imports the router) and is
re-exported here with its gather helpers.

It is a pure *export*: every number is produced by the same object
code (``LatencyModel.link_delay_ms``, ``NetworkConditions.loss_of``, …)
that the reference paths call, which is the first half of the
bit-identical guarantee — the flat paths then combine those numbers with
the exact same IEEE operation order as the scalar reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.bgp.csr import GraphCSR, bucket_csr, csr_gather
from repro.errors import MeasurementError
from repro.measurement.latency import LatencyModel

__all__ = ["GraphCSR", "WorldArrays", "bucket_csr", "csr_gather"]


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
