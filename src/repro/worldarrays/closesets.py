"""The close cluster set of paper Fig. 9, and the one code that builds it.

``construct-close-cluster-set()`` runs on a cluster surrogate ``s``: a
breadth-first search from s's AS over the annotated AS graph under the
valley-free constraint, up to ``k`` hops, probing every cluster found in
a visited AS; clusters passing the latency/loss thresholds join the set,
and expansion continues through an AS only while its measurements pass.
:class:`CloseClusterSet` is the result, :class:`FlatCloseSetBuilder` the
vectorized construction over :class:`~repro.bgp.csr.GraphCSR`.

This is the close-set code production runs: every surrogate build and
every maintainer rebuild, verdict and patch.  The executable
specification (``tests/oracles.py::construct_close_cluster_set``, the
Fig. 9 transcription tests compare against) runs a level-synchronous
valley-free BFS with python sets; this builder runs it for ``CELLS // V``
sources at once (one source is the one-slot case) in three steps:

- **one probe block**: each source's RTT and loss rows are read once,
  ``(S, N)``, through the view's ``rows``;
- **every verdict up front**: whether an AS expands depends only on the
  (source, AS) pair, never on the depth it is reached at (the home AS
  always expands), so one cumulative sum of the pass mask in per-AS
  cluster order gives every verdict before the BFS starts;
- **a bit-parallel BFS** over the graph's (node, phase) state graph
  (:meth:`GraphCSR.state_graph`), multi-source BFS as in Then et al.,
  "The More the Merrier" (VLDB 2015): bit ``i`` of a state's uint64
  words is source ``i``, and one level is one gather plus one
  ``np.bitwise_or.reduceat`` for every source at once.

Members are the passing probes in visited ASes, at their AS's depth.
It reproduces the reference *exactly*: same entries (cluster, rtt,
loss, depth), same ``probe_messages`` / ``probes_by_as`` /
``ases_visited`` accounting, and the same observability emission
(counters, histograms, and the ``close_set.build`` trace span), so
``traces.jsonl`` is byte-identical whichever path built the set.

Every build shares the graph's one CSR export (:meth:`ASGraph.csr`,
also shared with every other builder and router on that graph, with
its state graph), the builder's cluster-row table and its probe view;
nothing is set up per source cluster.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.bgp.asgraph import ASGraph
from repro.errors import ProtocolError

#: (source × AS) cells of one multi-source sweep.  Measured, not tunable
#: (docs/performance.md "1.22"): the per-source cost is flat within ~15 %
#: from 2^15 to 2^18 at ``small`` and ``10k``; 2^16 keeps a sweep's row
#: block and visit table near 1 MB.  Same value as ``bgp.routing.CELLS``.
CELLS = 2**16

#: lossT: a probed cluster joins the set only below this one-way loss
#: rate (and below the latency threshold the builder is given).
LOSS_THRESHOLD = 0.05


@dataclass(frozen=True)
class CloseClusterEntry:
    """One member of a close cluster set, with its measured path metrics."""

    cluster: int        # matrix index of the member cluster
    rtt_ms: float       # measured surrogate-to-surrogate RTT
    loss: float         # measured one-way loss rate
    as_hops: int        # valley-free BFS depth at which it was found


@dataclass(eq=False)
class CloseClusterSet:
    """The close cluster set of one cluster (keyed by matrix index).

    The set *is* four aligned arrays sorted by member cluster id; the
    constructor rejects anything else.  :meth:`add` / :meth:`discard`
    rebind the arrays and never write into them, so arrays handed out by
    :meth:`rows`, and shallow copies of the set, stay valid snapshots.
    """

    owner: int
    ids: np.ndarray = ()          # member clusters: int64, ≥ 0, strictly ascending
    rtt_ms: np.ndarray = ()       # measured surrogate-to-surrogate RTT (float64)
    loss: np.ndarray = ()         # measured one-way loss rate (float64)
    as_hops: np.ndarray = ()      # valley-free BFS depth of discovery (int64)
    probe_messages: int = 0       # maintenance traffic spent building it
    ases_visited: int = 0
    #: Probe messages split by the AS whose clusters were probed — the
    #: trace layer's L2/L4 attribution (which AS absorbed the probing).
    #: A set the builder assembled keeps it as the sweep's columns until
    #: something reads it (:meth:`__getattr__`).
    probes_by_as: Dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.ids = np.asarray(self.ids, dtype=np.int64)
        self.rtt_ms = np.asarray(self.rtt_ms, dtype=np.float64)
        self.loss = np.asarray(self.loss, dtype=np.float64)
        self.as_hops = np.asarray(self.as_hops, dtype=np.int64)
        shapes = {self.ids.shape, self.rtt_ms.shape, self.loss.shape, self.as_hops.shape}
        ids = self.ids
        unsorted = ids.ndim != 1 or np.any(ids[1:] <= ids[:-1]) or np.any(ids[:1] < 0)
        if len(shapes) != 1 or unsorted:
            raise ProtocolError(f"close set of {self.owner}: arrays unaligned, ids unsorted or < 0")

    @classmethod
    def assembled(
        cls,
        owner: int,
        ids: np.ndarray,
        rtt_ms: np.ndarray,
        loss: np.ndarray,
        as_hops: np.ndarray,
        probe_messages: int,
        ases_visited: int,
        probes: Tuple[np.ndarray, np.ndarray],
    ) -> "CloseClusterSet":
        """A set from columns that already hold the stored-array
        invariants — ``int64`` / ``float64``, aligned, ids strictly
        ascending and ≥ 0 — taken as they are, unchecked.  For the
        builder's sweep, which sorted them itself; every other caller
        goes through the validating constructor.  ``probes`` is the
        ``(asn, messages)`` columns ``probes_by_as`` is made of when it
        is first read."""
        built = cls.__new__(cls)
        built.owner = owner
        built.ids, built.rtt_ms, built.loss, built.as_hops = ids, rtt_ms, loss, as_hops
        built.probe_messages = probe_messages
        built.ases_visited = ases_visited
        built._probes = probes
        return built

    def __getattr__(self, name: str):
        # Reached only for an attribute the instance lacks: an assembled
        # set's ``probes_by_as`` before its first read.
        if name == "probes_by_as" and "_probes" in self.__dict__:
            asns, messages = self.__dict__.pop("_probes")
            self.probes_by_as = dict(zip(asns.tolist(), messages.tolist()))
            return self.probes_by_as
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, CloseClusterSet):
            return NotImplemented
        return self.entries == other.entries and (
            (self.owner, self.probe_messages, self.ases_visited, self.probes_by_as)
            == (other.owner, other.probe_messages, other.ases_visited, other.probes_by_as)
        )

    def _slot(self, cluster: int) -> Tuple[int, bool]:
        """Where ``cluster`` sits or would be inserted; whether it is a member."""
        at = int(np.searchsorted(self.ids, cluster))
        return at, at < len(self.ids) and int(self.ids[at]) == cluster

    def __contains__(self, cluster: int) -> bool:
        return self._slot(cluster)[1]

    def __len__(self) -> int:
        return len(self.ids)

    def rows(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(ids, rtt_ms)`` as stored: the form select-close-relay
        reads.  Read-only by convention."""
        return self.ids, self.rtt_ms

    def clusters(self) -> List[int]:
        return self.ids.tolist()

    @property
    def entries(self) -> Mapping[int, CloseClusterEntry]:
        """The members as a read-only ``{cluster: entry}`` mapping in
        ascending order, derived from the arrays on every access — for
        tests and scalar specifications, not for hot paths."""
        rows = zip(
            self.clusters(), self.rtt_ms.tolist(), self.loss.tolist(), self.as_hops.tolist()
        )
        return MappingProxyType({row[0]: CloseClusterEntry(*row) for row in rows})

    def add(self, entry: CloseClusterEntry) -> None:
        """Admit ``entry``; a cluster that is already a member keeps its entry."""
        at, member = self._slot(entry.cluster)
        if not member:
            self.ids = np.insert(self.ids, at, entry.cluster)
            self.rtt_ms = np.insert(self.rtt_ms, at, entry.rtt_ms)
            self.loss = np.insert(self.loss, at, entry.loss)
            self.as_hops = np.insert(self.as_hops, at, entry.as_hops)

    def discard(self, cluster: int) -> None:
        """Evict ``cluster`` if it is a member."""
        at, member = self._slot(cluster)
        if member:
            self.ids = np.delete(self.ids, at)
            self.rtt_ms = np.delete(self.rtt_ms, at)
            self.loss = np.delete(self.loss, at)
            self.as_hops = np.delete(self.as_hops, at)

    def drift_from(self, fresh: "CloseClusterSet") -> float:
        """``|self Δ fresh| / max(1, |fresh|)`` over members with their
        measurements — how far this (stale) set sits from ``fresh``.  A
        member whose measurements changed counts on both sides."""
        _, mine, theirs = np.intersect1d(
            self.ids, fresh.ids, assume_unique=True, return_indices=True
        )
        same = (
            (self.rtt_ms[mine] == fresh.rtt_ms[theirs])
            & (self.loss[mine] == fresh.loss[theirs])
            & (self.as_hops[mine] == fresh.as_hops[theirs])
        )
        return (len(self) + len(fresh) - 2 * int(same.sum())) / max(1, len(fresh))


def emit_build_observability(result: CloseClusterSet, own_as: int) -> None:
    """Counters, histograms, and the trace span of one close-set build.

    Shared by the flat-array builder and the Fig. 9 oracle in
    ``tests/oracles.py`` so the two emit byte-identical observability
    for identical results.
    """
    if not result.ases_visited:
        return  # the owner's AS is unknown to the graph: nothing was built
    obs.counter("close_set.built").inc()
    obs.counter("close_set.probe_messages").inc(result.probe_messages)
    obs.histogram("close_set.size").observe(len(result))
    obs.histogram("close_set.ases_visited").observe(result.ases_visited)
    tracer = obs.tracer()
    if tracer:
        # Builds run analytically (zero simulated time), so the span is
        # instantaneous; it nests under whatever selection scope is
        # ambient, or starts its own trace when built standalone.
        now = tracer.now()
        parent = tracer.active
        build = (
            parent.child("close_set.build", now, owner=result.owner, asn=own_as)
            if parent
            else tracer.begin("close_set.build", now, owner=result.owner, asn=own_as)
        )
        build.end(
            now,
            size=len(result),
            probe_messages=result.probe_messages,
            ases_visited=result.ases_visited,
            probes_by_as={str(k): v for k, v in sorted(result.probes_by_as.items())},
        )


class FlatCloseSetBuilder:
    """Builds close cluster sets from flat arrays (bit-identical).

    ``clusters_by_as`` maps ASN → matrix indices of the clusters it
    hosts (the same table :meth:`ASAPSystem.clusters_in_as` serves);
    ``world`` is the matrix view the surrogate probes read — dense
    :class:`~repro.measurement.matrix.DelegateMatrices` or the streamed
    :class:`~repro.worldarrays.virtual.VirtualMatrices` (their row reads
    return the same floats either way).  The keyword arguments are the
    three protocol parameters the BFS reads (``ASAPConfig`` fields of the
    same names); the loss threshold is :data:`LOSS_THRESHOLD`.
    """

    def __init__(
        self,
        graph: ASGraph,
        world,
        clusters_by_as: Dict[int, List[int]],
        *,
        k_hops: int,
        lat_threshold_ms: float,
        valley_free: bool,
    ) -> None:
        self.k_hops = k_hops
        self._lat_threshold_ms = lat_threshold_ms
        self._valley_free = valley_free
        self._csr = csr = graph.csr()
        self._world = world
        # Clusters per graph node as one CSR, ascending within each AS
        # (ASes outside the graph are unreachable by the BFS and need no
        # rows): one lexsort over every (node, cluster) pair.
        node_of = csr.index_of.get
        nodes = np.repeat(
            np.array([node_of(asn, -1) for asn in clusters_by_as], dtype=np.int64),
            [len(members) for members in clusters_by_as.values()],
        )
        flat = np.fromiter(
            (c for members in clusters_by_as.values() for c in members),
            dtype=np.int64,
            count=len(nodes),
        )
        keep = nodes >= 0
        nodes, flat = nodes[keep], flat[keep]
        self._rows_flat = flat[np.lexsort((flat, nodes))]
        self._rows_indptr = np.zeros(csr.count + 1, dtype=np.int64)
        np.cumsum(np.bincount(nodes, minlength=csr.count), out=self._rows_indptr[1:])
        # The graph node hosting each cluster (V: none).
        self._home = np.full(world.count, csr.count, dtype=np.int64)
        self._home[self._rows_flat] = np.repeat(
            np.arange(csr.count), np.diff(self._rows_indptr)
        )

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
        """The close cluster set of one source cluster: a one-source
        sweep, plus the build's observability emission.

        ``meta_out`` mirrors the reference builder's hook: it receives
        ``{asn: (depth, expands)}`` for every visited AS, identical to
        what the Fig. 9 oracle's ``construct_close_cluster_set`` records.
        ``online`` is the current membership as a boolean mask over
        cluster indices (``None``: every cluster is online); offline
        clusters are neither probed nor entered, exactly as if the reference's
        ``clusters_in_as`` had been filtered by the same mask.
        """
        if own_as not in self._csr.index_of:
            # Matches the reference: an AS unknown to the inferred graph
            # yields an empty set with no emission.
            return CloseClusterSet(owner=own_cluster)
        metas = None if meta_out is None else [meta_out]
        (result,) = self._sweep([(own_cluster, own_as)], online, metas)
        emit_build_observability(result, own_as)
        return result

    def build_many(
        self,
        sources: Iterable[tuple],
        online: Optional[np.ndarray] = None,
        meta_out: Optional[Dict[int, dict]] = None,
    ) -> Dict[int, CloseClusterSet]:
        """Close sets for many ``(own_cluster, own_as)`` sources, keyed by
        cluster in first-occurrence order: one multi-source BFS per
        ``CELLS // V`` sources, each set equal to :meth:`build`'s — arrays,
        accounting, ``probes_by_as`` order.  A repeated source is built
        once; one whose AS the graph does not know gets the empty set.
        ``meta_out`` receives ``{cluster: {asn: (depth, expands)}}``, each
        source's :meth:`build` hook.  Nothing is emitted: the caller
        reports each set where it hands it out as built
        (:func:`emit_build_observability`).
        """
        wanted = dict(sources)
        if meta_out is not None:
            for cluster in wanted:
                meta_out[cluster] = {}
        known = [source for source in wanted.items() if source[1] in self._csr.index_of]
        step = max(1, CELLS // self._csr.count)
        built: Dict[int, CloseClusterSet] = {}
        for start in range(0, len(known), step):
            batch = known[start : start + step]
            metas = None if meta_out is None else [meta_out[cluster] for cluster, _ in batch]
            built.update(
                zip((cluster for cluster, _ in batch), self._sweep(batch, online, metas))
            )
        return {
            cluster: built[cluster] if cluster in built else CloseClusterSet(owner=cluster)
            for cluster in wanted
        }

    # -- internals ---------------------------------------------------------

    def _sweep(
        self,
        sources: Sequence[tuple],
        online: Optional[np.ndarray],
        metas: Optional[List[dict]] = None,
    ) -> List[CloseClusterSet]:
        """One bit-parallel BFS for every source at once (module
        docstring): bit ``i`` of a state's words is source ``i``.  Visits
        come out in each source's (depth, AS) order and members in its
        cluster order, so nothing is sorted.  ``metas`` holds one
        :meth:`build` ``meta_out`` hook per source.
        """
        csr = self._csr
        count, slots = csr.count, len(sources)
        owners = np.array([cluster for cluster, _ in sources], dtype=np.int64)
        home = np.array([csr.index_of[asn] for _, asn in sources], dtype=np.int64)
        every = np.arange(slots)
        # The own cluster, when it lives in the home AS, is never probed
        # and joins with a zero entry; the home AS always expands.
        at_home = self._home[owners] == home
        rtt, lost = self._world.rows(owners)
        passes, probed, expands = self._verdicts(owners, at_home, rtt, lost, online)
        expands[every, home] = True

        words = -(-slots // 64)

        def pack(bits: np.ndarray) -> np.ndarray:  # (S, X) bool -> (X, words) words
            padded = np.zeros((bits.shape[1], 64 * words), dtype=bool)
            padded[:, :slots] = bits.T
            return np.packbits(padded, axis=1, bitorder="little").view("<u8")

        start = np.zeros((slots, count), dtype=bool)
        start[every, home] = True
        levels = [pack(start)]
        gate = np.concatenate([pack(expands)] * 2)
        front = np.concatenate((levels[0], np.zeros_like(levels[0])))
        seen, reached = front.copy(), levels[0].copy()
        moves, targets, starts = csr.state_graph(self._valley_free)
        for _ in range(self.k_hops if len(moves) else 0):
            step = np.bitwise_or.reduceat((front & gate)[moves], starts, axis=0)
            front = np.zeros_like(front)
            front[targets] = step & ~seen[targets]
            if not front.any():
                break
            seen |= front
            fresh = (front[:count] | front[count:]) & ~reached
            reached |= fresh
            levels.append(fresh)

        # Visits in (source, depth, AS) order off the one-hot of each
        # level's newly visited ASes.
        onehot = np.unpackbits(
            np.stack(levels).view(np.uint8), axis=2, count=slots, bitorder="little"
        ).view(bool)
        visit = np.flatnonzero(onehot.transpose(2, 0, 1)).astype(np.int32)
        slot = visit // (len(levels) * count)
        node = visit - slot * (len(levels) * count)
        depth = node // count
        node -= depth * count
        depth = depth.astype(np.int8)
        # Each source's depth per AS (-1: not visited; column V: no AS).
        depth_at = np.full((slots, count + 1), -1, dtype=np.int8)
        depth_at.ravel()[slot * (count + 1) + node] = depth
        # The accounting matches the oracle's ``_probe``/``_visit_as``
        # pair — 2 messages per probed cluster, attributed to its AS.
        messages = 2 * probed.ravel()[slot * count + node]
        hit = messages > 0
        asns = csr.as_ids[node]
        if metas is not None:
            for i, asn, at, rights in zip(
                slot.tolist(), asns.tolist(), depth.tolist(), expands[slot, node].tolist()
            ):
                metas[i][asn] = (at, rights)
        bounds = np.arange(slots + 1, dtype=np.int32)
        ases_visited = np.diff(np.searchsorted(slot, bounds)).tolist()
        probe_edges = np.searchsorted(slot[hit], bounds)
        asns, messages = asns[hit], messages[hit]
        totals = np.diff(np.concatenate(([0], np.cumsum(messages)))[probe_edges]).tolist()
        probe_edges = probe_edges.tolist()

        # Members: passed probes in visited ASes, at their AS's depth.
        depth_of = depth_at[:, self._home]
        member = passes & (depth_of >= 0)
        own = at_home if online is None else at_home & online[owners]
        member[own, owners[own]] = True
        cells = np.flatnonzero(member)
        slot = cells // len(self._home)
        ids = cells - slot * len(self._home)
        hops = depth_of.take(cells).astype(np.int64)
        columns = [ids, rtt.take(cells), lost.take(cells), hops]
        del rtt, lost, passes, member, depth_of  # the probe block
        is_own = own[slot] & (ids == owners[slot])  # the zero entries
        columns[1][is_own] = columns[2][is_own] = 0.0
        edges = np.searchsorted(slot, bounds).tolist()
        results = []
        for i, owner in enumerate(owners.tolist()):
            probed_at = slice(probe_edges[i], probe_edges[i + 1])
            results.append(
                CloseClusterSet.assembled(
                    owner,
                    *(column[edges[i] : edges[i + 1]] for column in columns),
                    probe_messages=totals[i],
                    ases_visited=ases_visited[i],
                    probes=(asns[probed_at], messages[probed_at]),
                )
            )
        return results

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
        with their measurements — the single-AS form of the verdicts
        :meth:`build` derives, which the maintainer's verdicts and
        patches go through.  ``depth`` 0 is the owner's home AS.
        """
        node = self._csr.index_of[asn]
        owner = np.array([own_cluster])
        rtt, lost = self._world.rows(owner)
        at_home = np.array([depth == 0 and self._home[own_cluster] == node])
        passes, _, expands = self._verdicts(owner, at_home, rtt, lost, online)
        rows = self._rows_flat[self._rows_indptr[node] : self._rows_indptr[node + 1]]
        rows = rows[passes[0, rows]]
        return depth == 0 or bool(expands[0, node]), rows, rtt[0, rows], lost[0, rows]

    def _verdicts(
        self,
        owners: np.ndarray,
        at_home: np.ndarray,
        rtt: np.ndarray,
        lost: np.ndarray,
        online: Optional[np.ndarray],
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every probe and every expansion verdict of the sources
        ``owners`` from their ``(S, N)`` rows ``rtt`` / ``lost``; an
        ``at_home`` source's own cluster is not probed.

        Returns ``(passes, probed, expands)``: ``(S, N)`` whether each
        probe passed, ``(S, V)`` how many clusters of each AS were
        probed and whether the BFS may expand through it.  This is the
        one place the close-set rule is written: a probe of an online
        cluster passes iff it was answered and ``rtt < latT`` and
        ``loss < lossT``; an AS expands iff it has nothing to probe or
        any of its probes passed (the caller lets the home AS expand).
        """
        passes = np.isfinite(rtt) & (rtt < self._lat_threshold_ms) & (lost < LOSS_THRESHOLD)
        if online is None:
            online = np.ones(len(self._home), dtype=bool)
        passes &= online
        inside = np.flatnonzero(at_home & online[owners])
        passes[inside, owners[inside]] = False
        indptr, flat = self._rows_indptr, self._rows_flat
        totals = np.zeros((len(owners), len(flat) + 1), dtype=np.int32)
        np.cumsum(passes[:, flat], axis=1, out=totals[:, 1:])
        per_as = np.concatenate(([0], np.cumsum(online[flat])))[indptr]
        probed = np.tile(np.diff(per_as), (len(owners), 1))
        probed[inside, self._home[owners[inside]]] -= 1
        return passes, probed, (probed == 0) | (np.diff(totals[:, indptr], axis=1) > 0)
