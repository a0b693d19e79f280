"""The annotated AS graph as contiguous CSR arrays.

:class:`GraphCSR` is the one array export of an
:class:`~repro.bgp.asgraph.ASGraph`: the valley-free step tables
(providers / customers / peers / siblings, and the provider ∪ sibling
"uphill" rows customer routes climb) over a dense int index.  The
batched routing-tree builder (:mod:`repro.bgp.routing`) traverses it with
:func:`csr_gather`; the bit-parallel close-set BFS
(:mod:`repro.worldarrays.closesets`) walks its (node, phase) state graph,
:meth:`GraphCSR.state_graph`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.bgp.asgraph import ASGraph


def csr_gather(indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Concatenate the CSR adjacency lists of ``rows`` (vectorized).

    Equivalent to ``np.concatenate([indices[indptr[r]:indptr[r+1]] for r
    in rows])`` without the python loop: the classic repeat/cumsum ragged
    gather.
    """
    if len(rows) == 0 or len(indices) == 0:
        return indices[:0]
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    ends = np.cumsum(counts)
    total = int(ends[-1])
    if total == 0:
        return indices[:0]
    positions = np.repeat(starts - (ends - counts), counts) + np.arange(total)
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


def _merged_rows(count: int, *parts: tuple) -> tuple:
    """Row-wise sorted union of CSRs whose rows are pairwise disjoint."""
    rows = np.concatenate(
        [np.repeat(np.arange(count), np.diff(indptr)) for indptr, _ in parts]
    )
    values = np.concatenate([indices for _, indices in parts])
    indptr = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=count), out=indptr[1:])
    return indptr, values[np.lexsort((values, rows))]


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
    uphill_indptr: np.ndarray   # providers ∪ siblings, merged and sorted
    uphill_indices: np.ndarray
    neighbors_indptr: np.ndarray
    neighbors_indices: np.ndarray

    @property
    def count(self) -> int:
        return len(self.as_ids)

    def state_graph(self, valley_free: bool) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The BFS moves as a graph over 2V states — node ``v`` UP is
        state ``v``, DOWN is ``V + v`` — built once per flag and kept.

        Valley-free, UP climbs providers and siblings (UP) and crosses
        peers (DOWN); both phases descend customers (DOWN); siblings keep
        DOWN.  Otherwise every neighbour keeps the phase.  Returns
        ``(sources, targets, starts)``: edge sources sorted by target,
        the distinct targets, and where each target's edges begin — the
        offsets of a ``reduceat`` over ``x[sources]``.
        """
        cached = self.__dict__.setdefault("_state_graphs", {})
        if valley_free not in cached:
            count = self.count

            def moves(indptr, indices, up_from: bool, up_to: bool):
                src = np.repeat(np.arange(count), np.diff(indptr))
                return src + (0 if up_from else count), indices + (0 if up_to else count)

            if valley_free:
                pairs = [
                    moves(self.providers_indptr, self.providers_indices, True, True),
                    moves(self.siblings_indptr, self.siblings_indices, True, True),
                    moves(self.peers_indptr, self.peers_indices, True, False),
                    moves(self.customers_indptr, self.customers_indices, True, False),
                    moves(self.customers_indptr, self.customers_indices, False, False),
                    moves(self.siblings_indptr, self.siblings_indices, False, False),
                ]
            else:
                pairs = [
                    moves(self.neighbors_indptr, self.neighbors_indices, up, up)
                    for up in (True, False)
                ]
            src, dst = (np.concatenate(column) for column in zip(*pairs))
            order = np.argsort(dst, kind="stable")
            targets, starts = np.unique(dst[order], return_index=True)
            cached[valley_free] = (src[order], targets, starts)
        return cached[valley_free]

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
        uphill = _merged_rows(count, providers, siblings)
        neighbors = _merged_rows(count, providers, customers, peers, siblings)
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
            uphill_indptr=uphill[0],
            uphill_indices=uphill[1],
            neighbors_indptr=neighbors[0],
            neighbors_indices=neighbors[1],
        )
