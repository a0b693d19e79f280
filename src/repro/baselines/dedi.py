"""DEDI — RON-like dedicated relay nodes.

One dedicated relay node is provisioned in each of the N clusters whose
ASes have the largest connection degrees (infrastructure goes where the
network is best connected).  Every session probes the whole fleet —
RON's all-pairs maintenance makes this its per-session equivalent — so
the overhead is fixed and the candidate set never grows with the peer
population, which is exactly why DEDI fails the paper's scalability test
(Fig. 17).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.baselines.base import DEDICATED_COUNT, MethodResult, RelayMethod, session_batch
from repro.bgp.asgraph import ASGraph
from repro.core.config import require_count


class DEDIMethod(RelayMethod):
    """Dedicated-relay selection (paper's RON-like baseline)."""

    name = "DEDI"

    def __init__(self, graph: ASGraph, fleet_size: int = DEDICATED_COUNT) -> None:
        require_count("fleet_size", fleet_size, 0)
        self._graph = graph
        self._fleet_size = fleet_size
        # The fleet depends on the evaluated world's cluster headers, so
        # it is ranked lazily on first use and cached per world identity.
        self._fleet_world: Optional[int] = None
        self._fleet: List[int] = []

    def fleet_for(self, world) -> List[int]:
        """Cluster indices hosting the dedicated relay nodes in ``world``."""
        if self._fleet_world != id(world):
            self._fleet = _top_degree_clusters(world, self._graph, self._fleet_size)
            self._fleet_world = id(world)
        return list(self._fleet)

    def evaluate_sessions(
        self,
        world,
        sessions: Sequence,
        *,
        session_ids: Optional[Sequence[int]] = None,
    ) -> List[MethodResult]:
        """Every session probes the same fleet: one ``(1, F)`` candidate
        row broadcast over the batch."""
        pairs, _ = session_batch(sessions, session_ids)
        fleet = np.asarray(self.fleet_for(world), dtype=np.int64)
        return self._probe_results(world, pairs, fleet[None, :])


def _top_degree_clusters(world, graph: ASGraph, count: int) -> List[int]:
    """Clusters ranked by their AS's connection degree, highest first,
    ties by index (an AS outside the graph has degree 0): one lexsort
    over the degree array the graph's CSR export holds."""
    csr = graph.csr()
    asn_of = np.asarray(world.asn_of, dtype=np.int64)
    degree = np.zeros(len(asn_of), dtype=np.int64)
    if csr.count:
        node = np.minimum(np.searchsorted(csr.as_ids, asn_of), csr.count - 1)
        known = csr.as_ids[node] == asn_of
        degree[known] = np.diff(csr.neighbors_indptr)[node[known]]
    return np.lexsort((np.arange(len(degree)), -degree))[:count].tolist()
