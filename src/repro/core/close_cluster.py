"""The close cluster set of paper Fig. 9 — the types every builder fills.

``construct-close-cluster-set()`` runs on a cluster surrogate ``s``: a
breadth-first search from s's AS over the annotated AS graph under the
valley-free constraint, up to ``k`` hops, probing every cluster found in
a visited AS; clusters passing the latency/loss thresholds join the set,
and expansion continues through an AS only while its measurements pass.
:class:`repro.worldarrays.FlatCloseSetBuilder` is the one implementation;
``tests/oracles.py::construct_close_cluster_set`` is its scalar
transcription of the figure, which the parity tests hold it to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, List, Mapping, Tuple

import numpy as np

from repro.errors import ProtocolError


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
        probes_by_as: Dict[int, int],
    ) -> "CloseClusterSet":
        """A set from columns that already hold the stored-array
        invariants — ``int64`` / ``float64``, aligned, ids strictly
        ascending and ≥ 0 — taken as they are, unchecked.  For the
        builder's sweep, which sorted them itself; every other caller
        goes through the validating constructor."""
        built = cls.__new__(cls)
        built.owner = owner
        built.ids, built.rtt_ms, built.loss, built.as_hops = ids, rtt_ms, loss, as_hops
        built.probe_messages = probe_messages
        built.ases_visited = ases_visited
        built.probes_by_as = probes_by_as
        return built

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
    from repro import obs

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
