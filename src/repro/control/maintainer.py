"""Incremental close-set repair under churn — parity-exact by construction.

A surrogate's close cluster set (paper Fig. 9) is a function of (a) the
AS graph, (b) *which clusters are online*, and (c) the probe matrix.
Churn only moves (b), and only at the granularity of a cluster turning
dark (last host left) or lighting up (first host back) — host counts
above one never change the set.  So repair decomposes cleanly:

- the BFS *reachability* (which ASes are visited, at what depth) depends
  on membership only through each visited AS's expansion verdict
  ("did any of its clusters pass the thresholds"; empty/transit ASes
  always expand);
- if no verdict flips, the visited set and depths are untouched and the
  repair is a **local patch**: add the newly-online cluster at its AS's
  recorded depth (threshold-checked), or evict the departed one;
- if a verdict flips (or the change might make one flip), reachability
  can shift arbitrarily far downstream — the maintainer **falls back to
  a from-scratch build**, so parity holds by construction.

The maintainer therefore guarantees: after :meth:`CloseSetMaintainer.
drain`, every tracked set's members and measurements are *identical* to
a from-scratch build on the same membership — the property the parity
tests (against the Fig. 9 reference) and the soak's staleness gauge
check.  Builds, verdicts and patches all go through the system's one
:class:`~repro.worldarrays.FlatCloseSetBuilder`, so the threshold rule
is not restated here.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.errors import ProtocolError
from repro.worldarrays.closesets import (
    CloseClusterEntry,
    CloseClusterSet,
    FlatCloseSetBuilder,
    emit_build_observability,
)

__all__ = ["CloseSetMaintainer", "ClusterMembership", "MembershipEvent"]

#: Event kinds the maintainer consumes (host granularity; the membership
#: tracker collapses them to cluster online/offline transitions).
EVENT_KINDS = ("host-join", "host-leave")


@dataclass(frozen=True)
class MembershipEvent:
    """One host arriving in / departing from a prefix-cluster."""

    at_ms: float
    kind: str      # "host-join" | "host-leave"
    cluster: int   # matrix index of the affected cluster

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ProtocolError(f"unknown membership event kind {self.kind!r}")


class ClusterMembership:
    """Online host counts per cluster; reports 0↔1 transitions.

    Only those transitions can change a close set — the BFS sees a
    cluster, not its population — so everything else is a no-op the
    maintainer counts but never repairs for.
    """

    def __init__(self, online_counts: Dict[int, int]) -> None:
        self._counts: Dict[int, int] = {
            int(cluster): int(count) for cluster, count in online_counts.items()
        }

    def is_online(self, cluster: int) -> bool:
        return self._counts.get(cluster, 0) > 0

    def online_mask(self, size: int) -> np.ndarray:
        """The membership as a boolean mask over cluster indices
        ``0..size-1`` (the builder's ``online`` argument)."""
        mask = np.zeros(size, dtype=bool)
        mask[[c for c, count in self._counts.items() if count > 0]] = True
        return mask

    def apply(self, event: MembershipEvent) -> Optional[str]:
        """Apply one event; returns ``"online"``/``"offline"`` on a
        0↔1 transition, None when the cluster's state did not flip."""
        before = self._counts.get(event.cluster, 0)
        if event.kind == "host-join":
            after = before + 1
        else:
            after = max(0, before - 1)
        self._counts[event.cluster] = after
        if before == 0 and after == 1:
            return "online"
        if before == 1 and after == 0:
            return "offline"
        return None


class CloseSetMaintainer:
    """Keeps tracked close sets parity-exact under membership churn.

    ``builder`` is the world's :class:`FlatCloseSetBuilder` over the
    *static* AS→clusters table; the maintainer passes it the current
    :class:`ClusterMembership` as a mask, so builds and verdicts see
    only online clusters.
    """

    def __init__(
        self,
        builder: FlatCloseSetBuilder,
        membership: ClusterMembership,
        asn_of_cluster: Callable[[int], int],
    ) -> None:
        self._builder = builder
        self._membership = membership
        self._asn_of_cluster = asn_of_cluster
        # owner cluster -> (maintained set, {asn: (depth, expands)})
        self._tracked: Dict[int, Tuple[CloseClusterSet, Dict[int, Tuple[int, bool]]]] = {}
        self._dormant: set = set()  # tracked owners whose cluster went dark
        self._queue: Deque[MembershipEvent] = deque()
        self.repair_log: List[str] = []
        self.events_seen = 0
        self.local_repairs = 0
        self.rebuilds = 0
        self.noops = 0

    @classmethod
    def from_system(cls, system, membership: Optional[ClusterMembership] = None):
        """Wire a maintainer to a running :class:`ASAPSystem`."""
        view = system.scenario.matrix_view()
        if membership is None:
            membership = ClusterMembership(dict(enumerate(system.online_sizes.tolist())))
        return cls(
            builder=system.close_set_builder,
            membership=membership,
            asn_of_cluster=lambda c: int(view.asn_of[c]),
        )

    # -- views ---------------------------------------------------------------

    @property
    def membership(self) -> ClusterMembership:
        return self._membership

    @property
    def tracked(self) -> List[int]:
        return sorted(self._tracked)

    @property
    def pending(self) -> int:
        return len(self._queue)

    def current(self, owner: int) -> CloseClusterSet:
        """The maintained set of a tracked owner (drained or not)."""
        try:
            return self._tracked[owner][0]
        except KeyError:
            raise ProtocolError(f"cluster {owner} is not tracked") from None

    # -- lifecycle -------------------------------------------------------------

    def track(self, owner: int) -> CloseClusterSet:
        """Start maintaining a cluster's close set (fresh build now)."""
        return self.track_many([owner])[0]

    def track_many(self, owners: Sequence[int]) -> List[CloseClusterSet]:
        """Start maintaining several clusters' close sets: one
        multi-source sweep builds them all, then each is reported as
        built (:func:`emit_build_observability`) in ``owners`` order —
        what :meth:`track` owner by owner reports.  Raises
        :class:`ProtocolError`, tracking none, if any owner is offline."""
        for owner in owners:
            if not self._membership.is_online(owner):
                raise ProtocolError(f"cluster {owner} is offline; cannot track")
        sources = [(owner, int(self._asn_of_cluster(owner))) for owner in owners]
        metas: Dict[int, Dict[int, Tuple[int, bool]]] = {}
        built = self._builder.build_many(sources, online=self._online(), meta_out=metas)
        for owner, asn in sources:
            emit_build_observability(built[owner], asn)
            self._tracked[owner] = (built[owner], metas[owner])
        return [built[owner] for owner in owners]

    def enqueue(self, event: MembershipEvent) -> None:
        self._queue.append(event)

    def drain(self) -> int:
        """Process every queued event in arrival order; after this the
        maintained sets match a from-scratch build on the resulting
        membership.  Returns the number of events processed."""
        processed = 0
        while self._queue:
            event = self._queue.popleft()
            processed += 1
            self.events_seen += 1
            transition = self._membership.apply(event)
            if transition is None:
                self.noops += 1
                continue
            self._on_transition(event.cluster, transition, event.at_ms)
        return processed

    def staleness(self, owner: int) -> float:
        """Divergence of the maintained set from a fresh build *right
        now* — ``|maintained Δ fresh| / max(1, |fresh|)``.  Zero after a
        drain; positive while repair events are still queued.  This is
        the soak's convergence gauge (cf. :mod:`repro.evaluation.maintenance`).
        """
        return self.current(owner).drift_from(self._fresh(owner))

    # -- repair ------------------------------------------------------------------

    def _on_transition(self, cluster: int, transition: str, at_ms: float) -> None:
        # The flipped cluster may itself be a tracked owner.
        if transition == "offline" and cluster in self._tracked:
            del self._tracked[cluster]
            self._dormant.add(cluster)
            self._log(at_ms, "owner-dark", owner=cluster)
        elif transition == "online" and cluster in self._dormant:
            self._dormant.discard(cluster)
            self._build(cluster)
            self._log(at_ms, "owner-return", owner=cluster)
        asn = int(self._asn_of_cluster(cluster))
        online = self._online()
        for owner in sorted(self._tracked):
            if owner == cluster:
                continue  # just rebuilt above (owner-return)
            self._repair_owner(owner, cluster, asn, transition, at_ms, online)

    def _repair_owner(
        self,
        owner: int,
        cluster: int,
        asn: int,
        transition: str,
        at_ms: float,
        online: np.ndarray,
    ) -> None:
        close_set, meta = self._tracked[owner]
        if asn not in meta:
            # The AS was never visited by this owner's BFS; membership
            # inside it cannot affect any visited AS's verdict, so the
            # set is untouched.
            self.noops += 1
            return
        depth, old_verdict = meta[asn]
        new_verdict, passing, rtt, lost = self._builder.probe_as(owner, asn, depth, online)
        if new_verdict != old_verdict and depth < self._builder.k_hops:
            # Expansion rights through this AS flipped: reachability
            # downstream may change arbitrarily — rebuild from scratch.
            self._build(owner)
            self._log(
                at_ms, "rebuild", owner=owner, cluster=cluster, asn=asn,
                verdict=new_verdict,
            )
            self.rebuilds += 1
            obs.counter("control.maintainer.rebuilds").inc()
            return
        # Verdict unchanged (or the AS sits at the hop limit and never
        # expands): the BFS shape is intact, patch the entries in place.
        meta[asn] = (depth, new_verdict)
        if transition == "offline":
            close_set.discard(cluster)
        else:
            for at in np.nonzero(passing == cluster)[0].tolist():
                close_set.add(CloseClusterEntry(cluster, float(rtt[at]), float(lost[at]), depth))
        self._log(at_ms, "patch", owner=owner, cluster=cluster, op=transition)
        self.local_repairs += 1
        obs.counter("control.maintainer.local_repairs").inc()

    # -- internals ----------------------------------------------------------------

    def _online(self) -> np.ndarray:
        return self._membership.online_mask(self._builder.cluster_count)

    def _fresh(
        self, owner: int, meta_out: Optional[Dict[int, Tuple[int, bool]]] = None
    ) -> CloseClusterSet:
        return self._builder.build(
            owner,
            int(self._asn_of_cluster(owner)),
            meta_out=meta_out,
            online=self._online(),
        )

    def _build(self, owner: int) -> CloseClusterSet:
        meta: Dict[int, Tuple[int, bool]] = {}
        close_set = self._fresh(owner, meta_out=meta)
        self._tracked[owner] = (close_set, meta)
        return close_set

    def _log(self, at_ms: float, kind: str, **fields) -> None:
        doc = {"at_ms": round(at_ms, 3), "kind": kind}
        doc.update(fields)
        self.repair_log.append(json.dumps(doc, sort_keys=True, separators=(",", ":")))

    def stats(self) -> dict:
        return {
            "events_seen": self.events_seen,
            "local_repairs": self.local_repairs,
            "rebuilds": self.rebuilds,
            "noops": self.noops,
            "tracked": len(self._tracked),
            "dormant": len(self._dormant),
        }
