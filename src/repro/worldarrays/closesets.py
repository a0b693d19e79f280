"""Vectorized ``construct-close-cluster-set()`` over :class:`GraphCSR`.

This is the close-set code production runs: every surrogate build and
every maintainer rebuild, verdict and patch.  The executable
specification (:func:`repro.core.close_cluster.construct_close_cluster_set`,
the Fig. 9 transcription tests compare against) runs a level-synchronous
valley-free BFS with python sets; this builder runs the same levels as
arrays over the CSR step tables:

- the frontier is the pair of (UP, DOWN) index arrays the previous level
  discovered; one level is four ragged CSR gathers (providers, peers,
  customers, siblings) instead of per-AS python iteration;
- expansion rights only matter at the *next* level, so the ASes a level
  newly visits are one independent batch: their cluster rows come out of
  one CSR gather, are probed with one ``gather_rtt`` and one
  ``gather_loss`` from the owner, and the per-AS verdicts are two
  ``np.bincount`` passes over the owning-AS index.

It reproduces the reference *exactly*: same entries (cluster, rtt,
loss, depth), same ``probe_messages`` / ``probes_by_as`` /
``ases_visited`` accounting, and the same observability emission
(counters, histograms, and the ``close_set.build`` trace span), so
``traces.jsonl`` is byte-identical whichever path built the set.

Every build shares the builder's one CSR export, cluster-row table and
probe view; nothing is set up per source cluster.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.bgp.asgraph import ASGraph
from repro.core.close_cluster import CloseClusterSet, emit_build_observability
from repro.core.config import ASAPConfig
from repro.worldarrays.arrays import GraphCSR, bucket_csr, csr_gather


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
        # Clusters per graph node as one CSR, ascending within each AS
        # (ASes outside the graph are unreachable by the BFS and need no
        # rows).
        self._rows_indptr, self._rows_flat = bucket_csr(
            self._csr.count,
            {
                node: np.array(sorted(clusters_by_as[asn]), dtype=np.int64)
                for asn, node in self._csr.index_of.items()
                if clusters_by_as.get(asn)
            },
        )

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
        csr = self._csr
        own_idx = csr.index_of.get(own_as)
        if own_idx is None:
            # Matches the reference: an AS unknown to the inferred graph
            # yields an empty set with no emission.
            return CloseClusterSet(owner=own_cluster)

        # Members as (clusters, rtt, loss, depth) arrays per level.  The
        # own cluster joins with a zero-cost entry and is never probed.
        found: List[Tuple[np.ndarray, ...]] = []
        own_rows = self._rows_flat[
            self._rows_indptr[own_idx] : self._rows_indptr[own_idx + 1]
        ]
        if (online is None or online[own_cluster]) and np.any(own_rows == own_cluster):
            found.append((np.array([own_cluster]), np.zeros(1), np.zeros(1), np.zeros(1, int)))

        count = csr.count
        up = np.zeros(count, dtype=bool)
        down = np.zeros(count, dtype=bool)
        expands = np.zeros(count, dtype=bool)
        seen = np.zeros(count, dtype=bool)
        fresh = front_up = np.array([own_idx], dtype=np.int64)
        front_down = fresh[:0]
        up[own_idx] = seen[own_idx] = True
        ases_visited = probe_messages = 0
        probes_by_as: Dict[int, int] = {}
        for depth in range(self._config.k_hops + 1):
            if depth:
                new_up, new_down = self._level(
                    front_up[expands[front_up]], front_down[expands[front_down]], up, down
                )
                if not new_up.any() and not new_down.any():
                    break
                up |= new_up
                down |= new_down
                front_up, front_down = np.nonzero(new_up)[0], np.nonzero(new_down)[0]
                fresh = np.nonzero((new_up | new_down) & ~seen)[0]
                seen[fresh] = True
            # Probe the ASes this level newly visited as one batch.  The
            # accounting matches the reference ``_probe``/``_visit_as``
            # pair — 2 messages per probed cluster, attributed to its AS —
            # and is written in its order: AS ascending, row ascending.
            verdict, probed, rows, rtt, lost = self._measure(
                own_cluster, fresh, depth, online
            )
            expands[fresh] = verdict
            asns = csr.as_ids[fresh]
            ases_visited += len(fresh)
            probe_messages += 2 * int(probed.sum())
            hit = probed > 0
            probes_by_as.update(zip(asns[hit].tolist(), (2 * probed[hit]).tolist()))
            if meta_out is not None:
                for asn, rights in zip(asns.tolist(), verdict.tolist()):
                    meta_out[asn] = (depth, rights)
            found.append((rows, rtt, lost, np.full(len(rows), depth)))

        # An AS is probed once, so no cluster repeats across levels.
        columns = [np.concatenate(column) for column in zip(*found)]
        order = np.argsort(columns[0])
        result = CloseClusterSet(
            own_cluster,
            *(column[order] for column in columns),
            probe_messages=probe_messages,
            ases_visited=ases_visited,
            probes_by_as=probes_by_as,
        )
        emit_build_observability(result, own_as)
        return result

    def build_many(self, sources: Iterable[tuple]) -> Dict[int, CloseClusterSet]:
        """Close sets for many ``(own_cluster, own_as)`` sources, one
        :meth:`build` each."""
        return {
            own_cluster: self.build(own_cluster, own_as)
            for own_cluster, own_as in sources
        }

    # -- internals ---------------------------------------------------------

    def _level(
        self,
        active_up: np.ndarray,
        active_down: np.ndarray,
        up: np.ndarray,
        down: np.ndarray,
    ):
        """One valley-free BFS level: the (UP, DOWN) states not yet in
        the visited masks ``up``/``down`` that one step reaches.

        ``active_*`` are the states the previous level discovered — the
        reference's ``frontier`` — whose AS holds expansion rights (a
        property of the AS, its probe verdict).  Older states were
        expanded at their own level and can reach nothing new.
        """
        csr = self._csr
        count = csr.count
        new_up = np.zeros(count, dtype=bool)
        new_down = np.zeros(count, dtype=bool)
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
            both = np.concatenate((active_up, active_down))
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
    ) -> Tuple[bool, np.ndarray, np.ndarray, np.ndarray]:
        """Probe every online cluster of one AS from ``own_cluster``.

        Returns ``(expands, rows, rtt, lost)``: whether the BFS may
        expand through the AS, then the clusters that passed (ascending)
        with their measurements — the single-AS form of the step
        :meth:`build` runs per level, which the maintainer's verdicts
        and patches go through.
        """
        nodes = np.array([self._csr.index_of[asn]], dtype=np.int64)
        verdict, _, rows, rtt, lost = self._measure(own_cluster, nodes, depth, online)
        return bool(verdict[0]), rows, rtt, lost

    def _measure(
        self, own_cluster: int, nodes: np.ndarray, depth: int, online: Optional[np.ndarray]
    ):
        """Probe every online cluster of the ASes ``nodes`` from
        ``own_cluster`` with one ``gather_rtt`` and one ``gather_loss``.

        Returns ``(expands, probed, rows, rtt, lost)``: per AS, its
        expansion rights and how many clusters were probed; then the
        clusters that passed with their measurements, in (``nodes``
        order, row ascending) order.  This is the one place the
        close-set rule is written: a probe passes iff it was answered
        and ``rtt < latT`` and ``loss < lossT``; a populated AS expands
        iff any probe passed, while the own AS (``depth == 0``, where
        the own cluster is never probed) and transit ASes (nothing to
        probe) always expand.
        """
        indptr = self._rows_indptr
        rows = csr_gather(indptr, self._rows_flat, nodes)
        owner = np.repeat(np.arange(len(nodes)), indptr[nodes + 1] - indptr[nodes])
        if online is not None:
            keep = online[rows]
            rows, owner = rows[keep], owner[keep]
        if depth == 0:
            keep = rows != own_cluster
            rows, owner = rows[keep], owner[keep]
        probed = np.bincount(owner, minlength=len(nodes))
        if len(rows) == 0:
            rtt = lost = np.zeros(0)
        else:
            rtt = self._world.gather_rtt(own_cluster, rows)
            lost = self._world.gather_loss(own_cluster, rows)
            passed = (
                np.isfinite(rtt)
                & (rtt < self._config.lat_threshold_ms)
                & (lost < self._config.loss_threshold)
            )
            rows, owner, rtt, lost = rows[passed], owner[passed], rtt[passed], lost[passed]
        expands = (probed == 0) | (np.bincount(owner, minlength=len(nodes)) > 0)
        if depth == 0:
            expands[:] = True
        return expands, probed, rows, rtt, lost
