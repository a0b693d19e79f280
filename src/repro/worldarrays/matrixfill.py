"""Vectorized delegate-matrix assembly over :class:`WorldArrays`.

The scalar specification (``tests/oracles.py``) walks each destination's
routing tree with a python memo and then runs a python loop over source
rows per column.  This module computes the same numbers as array passes:

- the memoized next-hop chain walk becomes a *level sweep* over a whole
  batch of destination trees at once: a tree's ``distance`` already is
  the hop count of every next-hop chain, so level ``d`` of every tree
  resolves in one set of array ops from level ``d - 1``;
- the per-row fill becomes one broadcast assignment per destination AS,
  covering every (source row × destination column) cell of that AS at
  once.

Trees are asked for in batches (:meth:`LatencyModel.routing_trees`),
resolved, filled and dropped: nothing is kept between calls.

Bit-identical guarantee: every arithmetic step reproduces the scalar
reference's operation order on the same float inputs —
``(link + transit) + interior`` for path cost, ``(1 - loss) * survive``
for loss, ``2*one_way + 2*(access_i + access_j)`` for RTT — and IEEE 754
elementwise ops are value-identical to their scalar counterparts.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.bgp.routing import CELLS, RoutingTree
from repro.measurement.latency import LatencyModel
from repro.worldarrays.arrays import WorldArrays


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
