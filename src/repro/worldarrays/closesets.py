"""Vectorized ``construct-close-cluster-set()`` over :class:`GraphCSR`.

This is the close-set code production runs: every surrogate build and
every maintainer rebuild, verdict and patch.  The executable
specification (:func:`repro.core.close_cluster.construct_close_cluster_set`,
the Fig. 9 transcription tests compare against) runs a level-synchronous
valley-free BFS with python sets; this builder runs the same levels as
boolean masks over the CSR step tables:

- the frontier is a pair of (UP, DOWN) phase masks; one level is four
  ragged CSR gathers (providers, peers, customers, siblings) instead of
  per-AS python iteration;
- probing a newly discovered AS is one vectorized threshold pass over
  the matrix rows of its clusters.

It reproduces the reference *exactly*: same entries (cluster, rtt,
loss, depth), same ``probe_messages`` / ``probes_by_as`` /
``ases_visited`` accounting, and the same observability emission
(counters, histograms, and the ``close_set.build`` trace span), so
``traces.jsonl`` is byte-identical whichever path built the set.

The batch API (:meth:`FlatCloseSetBuilder.build_many`) shares one CSR
export and the probe arrays across every source cluster — the per-world
setup cost is paid once per sweep instead of once per surrogate.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.bgp.asgraph import ASGraph
from repro.core.close_cluster import (
    CloseClusterEntry,
    CloseClusterSet,
    emit_build_observability,
)
from repro.core.config import ASAPConfig
from repro.worldarrays.arrays import GraphCSR, csr_gather


class FlatCloseSetBuilder:
    """Builds close cluster sets from flat arrays (bit-identical).

    ``clusters_by_as`` maps ASN → matrix indices of the clusters it
    hosts (the same table :meth:`ASAPSystem.clusters_in_as` serves);
    ``world`` is the matrix view the surrogate probes read — dense
    :class:`~repro.measurement.matrix.DelegateMatrices` or the streamed
    :class:`~repro.worldarrays.virtual.VirtualMatrices` (the gathers
    return the same floats either way).
    """

    def __init__(
        self,
        graph: ASGraph,
        world,
        clusters_by_as: Dict[int, List[int]],
        config: Optional[ASAPConfig] = None,
    ) -> None:
        self._config = config if config is not None else ASAPConfig()
        self._csr = GraphCSR.from_asgraph(graph)
        self._world = world
        # Clusters per graph node, ascending (ASes outside the graph are
        # unreachable by the BFS and need no rows).
        self._rows_of: List[np.ndarray] = [
            np.array(sorted(clusters_by_as.get(int(asn), ())), dtype=np.int64)
            for asn in self._csr.as_ids
        ]

    @property
    def config(self) -> ASAPConfig:
        return self._config

    @property
    def cluster_count(self) -> int:
        """Clusters in the probed world (the length of an ``online`` mask)."""
        return self._world.count

    def build(
        self,
        own_cluster: int,
        own_as: int,
        meta_out: Optional[dict] = None,
        online: Optional[np.ndarray] = None,
    ) -> CloseClusterSet:
        """The close cluster set of one source cluster.

        ``meta_out`` mirrors the reference builder's hook: it receives
        ``{asn: (depth, expands)}`` for every visited AS, identical to
        what :func:`construct_close_cluster_set` records.  ``online`` is
        the current membership as a boolean mask over cluster indices
        (``None``: every cluster is online); offline clusters are
        neither probed nor entered, exactly as if the reference's
        ``clusters_in_as`` had been filtered by the same mask.
        """
        config = self._config
        csr = self._csr
        result = CloseClusterSet(owner=own_cluster)
        own_idx = csr.index_of.get(own_as)
        if own_idx is None:
            # Matches the reference: an AS unknown to the inferred graph
            # yields an empty set with no emission.
            return result

        # Level 0: own cluster plus co-located clusters.
        self._visit(result, own_idx, 0, online)
        result.ases_visited = 1
        if meta_out is not None:
            meta_out[own_as] = (0, True)

        count = csr.count
        up = np.zeros(count, dtype=bool)
        down = np.zeros(count, dtype=bool)
        expands = np.zeros(count, dtype=bool)
        seen = np.zeros(count, dtype=bool)
        up[own_idx] = True
        expands[own_idx] = True
        seen[own_idx] = True

        for depth in range(1, config.k_hops + 1):
            new_up, new_down = self._level(up, down, expands)
            if not new_up.any() and not new_down.any():
                break
            up |= new_up
            down |= new_down
            fresh = (new_up | new_down) & ~seen
            seen |= fresh
            for as_idx in np.nonzero(fresh)[0]:
                result.ases_visited += 1
                expands[as_idx] = self._visit(result, int(as_idx), depth, online)
                if meta_out is not None:
                    meta_out[int(csr.as_ids[as_idx])] = (depth, bool(expands[as_idx]))

        emit_build_observability(result, own_as)
        return result

    def build_many(self, sources: Iterable[tuple]) -> Dict[int, CloseClusterSet]:
        """Close sets for many ``(own_cluster, own_as)`` sources in one sweep."""
        return {
            own_cluster: self.build(own_cluster, own_as)
            for own_cluster, own_as in sources
        }

    # -- internals ---------------------------------------------------------

    def _level(self, up: np.ndarray, down: np.ndarray, expands: np.ndarray):
        """One valley-free BFS level: new (UP, DOWN) states from the frontier.

        Expansion rights are a property of the AS (its probe verdict),
        mirroring the level-synchronous reference.
        """
        csr = self._csr
        count = csr.count
        new_up = np.zeros(count, dtype=bool)
        new_down = np.zeros(count, dtype=bool)
        active_up = np.nonzero(up & expands)[0]
        active_down = np.nonzero(down & expands)[0]
        if not self._config.valley_free:
            # Unconstrained BFS: every neighbor, phase preserved.
            new_up[csr_gather(csr.neighbors_indptr, csr.neighbors_indices, active_up)] = True
            new_down[
                csr_gather(csr.neighbors_indptr, csr.neighbors_indices, active_down)
            ] = True
        else:
            # UP frontier climbs providers (UP) and crosses peers (DOWN).
            new_up[csr_gather(csr.providers_indptr, csr.providers_indices, active_up)] = True
            new_down[csr_gather(csr.peers_indptr, csr.peers_indices, active_up)] = True
            # Both phases descend customers (DOWN) and keep phase on siblings.
            both = np.union1d(active_up, active_down)
            new_down[csr_gather(csr.customers_indptr, csr.customers_indices, both)] = True
            new_up[csr_gather(csr.siblings_indptr, csr.siblings_indices, active_up)] = True
            new_down[
                csr_gather(csr.siblings_indptr, csr.siblings_indices, active_down)
            ] = True
        new_up &= ~up
        new_down &= ~down
        return new_up, new_down

    def probe_as(
        self,
        own_cluster: int,
        asn: int,
        depth: int,
        online: Optional[np.ndarray] = None,
    ) -> Tuple[bool, int, List[CloseClusterEntry]]:
        """Probe every online cluster of one AS from ``own_cluster``.

        Returns ``(expands, probed, passing)``: whether the BFS may
        expand through the AS, how many clusters were probed, and an
        entry (at ``depth``) for each cluster that passed.  This is the
        one place the close-set rule is written: a probe passes iff it
        was answered and ``rtt < latT`` and ``loss < lossT``; a
        populated AS expands iff any probe passed, while the own AS
        (``depth == 0``, where the own cluster is never probed) and
        transit ASes (nothing to probe) always expand.  Builds and the
        maintainer's verdicts and patches all go through it.
        """
        return self._probe(own_cluster, self._csr.index_of[asn], depth, online)

    def _probe(
        self, own_cluster: int, as_idx: int, depth: int, online: Optional[np.ndarray]
    ) -> Tuple[bool, int, List[CloseClusterEntry]]:
        probed = self._rows_of[as_idx]
        if online is not None:
            probed = probed[online[probed]]
        if depth == 0:
            probed = probed[probed != own_cluster]
        if len(probed) == 0:
            return True, 0, []
        rtt = self._world.gather_rtt(own_cluster, probed)
        lost = self._world.gather_loss(own_cluster, probed)
        passed = (
            np.isfinite(rtt)
            & (rtt < self._config.lat_threshold_ms)
            & (lost < self._config.loss_threshold)
        )
        passing = [
            CloseClusterEntry(int(row), float(rtt_ms), float(loss_rate), depth)
            for row, rtt_ms, loss_rate in zip(probed[passed], rtt[passed], lost[passed])
        ]
        return depth == 0 or bool(passing), len(probed), passing

    def _visit(
        self,
        result: CloseClusterSet,
        as_idx: int,
        depth: int,
        online: Optional[np.ndarray],
    ) -> bool:
        """Probe one newly visited AS into ``result``; returns expansion
        rights.  Accounting matches the reference ``_probe``/``_visit_as``
        pair: 2 messages per probed cluster, attributed to this AS; the
        own cluster joins with a zero-cost entry and is never probed.
        """
        own = result.owner
        if depth == 0 and (online is None or online[own]):
            if np.any(self._rows_of[as_idx] == own):
                result.entries[own] = CloseClusterEntry(own, 0.0, 0.0, 0)
        expands, probed, passing = self._probe(own, as_idx, depth, online)
        if probed:
            asn = int(self._csr.as_ids[as_idx])
            result.probe_messages += 2 * probed
            result.probes_by_as[asn] = result.probes_by_as.get(asn, 0) + 2 * probed
            for entry in passing:
                result.entries[entry.cluster] = entry
        return expands
