"""The delegate-matrix fill: flat world arrays, filled by array passes.

:class:`WorldArrays` is the cluster book-keeping (cluster→AS index,
access delays, sizes, clusters-grouped-by-AS) plus the latency model's
per-AS costs and per-link edge costs as flat arrays.  It is a pure
*export*: every number is produced by the same object code
(``LatencyModel.link_delay_ms``, ``NetworkConditions.loss_of``, …) that
the reference paths call.

:class:`FlatMatrixAssembler` fills destination columns from it.  The
scalar specification (``tests/oracles.py``) walks each destination's
routing tree with a python memo and then runs a python loop over source
rows per column; this module computes the same numbers as array passes:

- the memoized next-hop chain walk becomes a *level sweep* over a whole
  batch of destination trees at once: a tree's ``distance`` already is
  the hop count of every next-hop chain, so level ``d`` of every tree
  resolves in one set of array ops from level ``d - 1``;
- the per-row fill becomes one broadcast assignment per destination AS,
  covering every (source row × destination column) cell of that AS at
  once.

Trees are asked for in batches (:meth:`LatencyModel.routing_trees`),
resolved, filled and dropped: nothing is kept between calls.  Dense
matrices (:func:`~repro.measurement.matrix.compute_delegate_matrices`)
and the streamed view (:class:`~repro.worldarrays.virtual.VirtualMatrices`)
both fill through it.

Bit-identical guarantee: every arithmetic step reproduces the scalar
reference's operation order on the same float inputs —
``(link + transit) + interior`` for path cost, ``(1 - loss) * survive``
for loss, ``2*one_way + 2*(access_i + access_j)`` for RTT — and IEEE 754
elementwise ops are value-identical to their scalar counterparts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.bgp.csr import bucket_csr
from repro.bgp.routing import CELLS, RoutingTree
from repro.errors import MeasurementError
from repro.measurement.latency import LatencyModel

__all__ = ["FlatMatrixAssembler", "WorldArrays"]


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


class FlatMatrixAssembler:
    """Fills destination columns of the delegate matrices from flat arrays;
    stateless between calls."""

    def __init__(self, model: LatencyModel, world: WorldArrays) -> None:
        self._model = model
        self._world = world
        # Universe index of every routing-tree position (the router's
        # graph is a subset of the universe; both are ascending ASNs).
        self._universe_of = np.searchsorted(
            world.as_ids, np.array(model.router.graph.ases(), dtype=np.int64)
        )

    @property
    def world(self) -> WorldArrays:
        return self._world

    def fill_columns(
        self,
        columns: Sequence[int],
        rtt: np.ndarray,
        loss: np.ndarray,
        hops: np.ndarray,
        positions: Optional[Sequence[int]] = None,
    ) -> None:
        """Fill the given destination columns (grouped by destination AS).

        ``columns`` are global cluster indices; ``positions`` are the
        matching column positions in the output arrays (defaults to the
        enumeration order).
        """
        obs.counter("matrix.columns").inc(len(columns))
        world = self._world
        columns = np.asarray(columns, dtype=np.int64)
        if positions is None:
            positions = np.arange(len(columns), dtype=np.int64)
        else:
            positions = np.asarray(positions, dtype=np.int64)

        dest_as_idx = world.cluster_as_idx[columns]
        destinations = np.unique(dest_as_idx)
        # The working set is sized like the tree builder's, for the same
        # reason (cache-resident scatter targets).
        step = max(1, CELLS // world.as_count)
        for start in range(0, len(destinations), step):
            group = destinations[start : start + step]
            trees = self._model.routing_trees(world.as_ids[group].tolist())
            # Failed / unknown destinations: columns stay at their fill values.
            live = [(as_idx, tree) for as_idx, tree in zip(group, trees) if tree is not None]
            if not live:
                continue
            resolved = self._resolve_trees([tree for _, tree in live])
            for (as_idx, _), one_way, loss_to, hops_to in zip(live, *resolved):
                rows = np.nonzero(hops_to[world.cluster_as_idx] >= 0)[0]
                if len(rows) == 0:
                    continue
                member = dest_as_idx == as_idx
                cols, at = columns[member], positions[member]
                row_as = world.cluster_as_idx[rows]
                # Same op order as the scalar reference:
                #   rtt = 2.0 * one_way + 2.0 * (access[i] + access[j])
                rtt[np.ix_(rows, at)] = 2.0 * one_way[row_as][:, None] + 2.0 * (
                    world.access_ms[rows][:, None] + world.access_ms[cols][None, :]
                )
                loss[np.ix_(rows, at)] = loss_to[row_as][:, None]
                hops[np.ix_(rows, at)] = hops_to[row_as][:, None]

    def _resolve_trees(self, trees: Sequence[RoutingTree]) -> Tuple[np.ndarray, ...]:
        """``(one_way, loss, hops)`` toward each tree's destination, one
        (tree × universe AS) row each; ``hops`` is -1 where unreachable.

        Vectorized equivalent of the reference memo walk: a source at
        distance ``d`` resolves from its next hop at ``d - 1``, so each
        level is one set of array ops over every tree of the batch, with
        the reference's exact expression order.
        """
        world = self._world
        count = world.as_count
        distance = np.stack([tree.distance for tree in trees])
        dest = np.array([world.as_index_of[tree.destination] for tree in trees])
        dest_key = np.arange(len(trees)) * count + dest

        slot, node = np.nonzero(distance > 0)
        level = distance[slot, node]
        order = np.argsort(level, kind="stable")
        slot, node = slot[order], node[order]
        src = self._universe_of[node]
        via = self._universe_of[np.stack([tree.next_hop for tree in trees])[slot, node]]
        # reference: link + transit (the destination is an endpoint, not transit)
        hop_cost = world.edge_cost_of(src, via) + np.where(
            via == dest[slot], 0.0, world.node_cost[via]
        )
        keep = 1.0 - world.loss_of[src]
        src_key = slot * count + src
        via_key = slot * count + via

        interior = np.zeros(len(trees) * count, dtype=float)
        survive = np.zeros(len(trees) * count, dtype=float)
        survive[dest_key] = 1.0 - world.loss_of[dest]
        bounds = np.cumsum(np.bincount(level))
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            s, v = src_key[lo:hi], via_key[lo:hi]
            # reference: interior[src] = link + transit + interior[nh]
            interior[s] = hop_cost[lo:hi] + interior[v]
            # reference: survive[src] = (1 - loss(src)) * survive[nh]
            survive[s] = keep[lo:hi] * survive[v]

        # reference: one_way = endpoint(src) + interior[src] + endpoint(dest)
        # (the destination itself only pays its own endpoint cost).
        one_way = (world.endpoint_cost + interior.reshape(len(trees), count)) + (
            world.endpoint_cost[dest][:, None]
        )
        one_way.reshape(-1)[dest_key] = world.endpoint_cost[dest]
        hops = np.full((len(trees), count), -1, dtype=np.int64)
        hops[:, self._universe_of] = distance
        return one_way, (1.0 - survive).reshape(len(trees), count), hops
