"""The assembled ASAP system over a scenario.

:class:`ASAPSystem` wires the node roles together on top of a built
:class:`~repro.scenario.Scenario`:

- a join maps the host's IP to its prefix cluster and publishes its
  nodal info to the cluster's serving surrogate (the bootstrap's §6.1
  job; which bootstrap answers, and the retries, are
  :func:`repro.core.dial.run_join`'s);
- every populated cluster elects its most capable host as surrogate,
  on the cluster's first touch (a round pays only for the clusters it
  uses);
- close cluster sets are computed in batches and reported when first
  served: a surrogate "builds" its set (``close_set.build``) on its
  first query, but the set usually comes out of a multi-source sweep
  that also computed every other set the run is about to ask for (they
  are periodic maintenance state in the real system);
- :meth:`ASAPSystem.call_many` runs a batch of VoIP sessions (``call``:
  a batch of one): measure each direct path, and for those that miss
  the latency threshold run select-close-relay phase by phase — the
  close sets a phase needs are built in one multi-source sweep — and
  pick the best relay.

Surrogate-to-surrogate probes (``lat()``/``loss()`` of Fig. 9) read the
scenario's delegate matrices — the same measured data the paper's
trace-driven simulation replays — through one
:class:`~repro.worldarrays.FlatCloseSetBuilder` shared by every
surrogate of the system.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.core.config import ASAPConfig
from repro.core.relay_selection import RelaySelection, SelectionBatch
from repro.core.surrogate import Surrogate
from repro.errors import ProtocolError, TopologyError
from repro.netaddr import IPv4Address
from repro.scenario import Scenario
from repro.worldarrays.closesets import (
    CloseClusterSet,
    FlatCloseSetBuilder,
    emit_build_observability,
)


@dataclass
class ASAPSession:
    """Outcome of one ASAP calling session."""

    caller: IPv4Address
    callee: IPv4Address
    caller_cluster: int
    callee_cluster: int
    direct_rtt_ms: float
    relay_needed: bool
    selection: Optional[RelaySelection] = None
    best_relay_rtt_ms: Optional[float] = None

    @property
    def messages(self) -> int:
        """Protocol messages spent selecting relays (Fig. 18's metric)."""
        return self.selection.messages if self.selection else 0

    @property
    def quality_paths(self) -> int:
        """Quality relay paths found (Figs. 11-12's metric)."""
        return self.selection.quality_paths if self.selection else 0

    @property
    def best_path_rtt_ms(self) -> float:
        """RTT of the best path the session can use (direct or relayed)."""
        candidates = [self.direct_rtt_ms]
        if self.best_relay_rtt_ms is not None:
            candidates.append(self.best_relay_rtt_ms)
        return min(candidates)


class _ComputedSets:
    """Close sets a sweep computed that no surrogate has built yet, plus
    the wanted clusters (``{cluster: asn}``) the next sweep computes too.

    A computed set is a pure function of ``(cluster, asn)``, so when it
    was computed never shows.  The table holds no surrogate: surrogates
    hold its :meth:`build`, and a reference back would put every system
    on a cycle that only the cyclic collector frees.
    """

    def __init__(self, builder) -> None:
        self._builder = builder
        self._sets: Dict[int, CloseClusterSet] = {}
        self._wanted: Dict[int, int] = {}

    def want(self, cluster: int, asn: int) -> None:
        """Have the next sweep compute ``cluster``'s set, unless it holds
        one already."""
        if cluster not in self._sets:
            self._wanted[cluster] = asn

    def build(self, cluster: int, asn: int) -> CloseClusterSet:
        """Every surrogate's ``build``: the set, and the observability,
        of a one-source :meth:`FlatCloseSetBuilder.build`."""
        result = self.take({cluster: asn})[cluster]
        emit_build_observability(result, asn)
        return result

    def take(self, sources: Dict[int, int]) -> Dict[int, CloseClusterSet]:
        """The sets of ``sources`` (``{cluster: asn}``), removed from the
        table.  Those not in it are computed first, with every wanted
        cluster, in one :meth:`FlatCloseSetBuilder.build_many`."""
        missing = {cluster: asn for cluster, asn in sources.items() if cluster not in self._sets}
        if missing:
            missing.update(self._wanted)
            self._wanted.clear()
            self._sets.update(self._builder.build_many(missing.items()))
        return {cluster: self._sets.pop(cluster) for cluster in sources}


class ASAPSystem:
    """A running ASAP deployment over one scenario."""

    def __init__(self, scenario: Scenario, config: Optional[ASAPConfig] = None) -> None:
        self._scenario = scenario
        self._config = config = config if config is not None else ASAPConfig()
        self._view = scenario.matrix_view()
        self._clusters = scenario.clusters
        graph = scenario.protocol_graph

        # Cluster bookkeeping at matrix-index granularity.
        self._clusters_by_as: Dict[int, List[int]] = {}
        for idx, asn in enumerate(self._view.asn_of):
            self._clusters_by_as.setdefault(int(asn), []).append(idx)
        # One CSR graph export + probe view, shared by every surrogate.
        self._builder = FlatCloseSetBuilder(
            graph,
            self._view,
            self._clusters_by_as,
            k_hops=config.k_hops,
            lat_threshold_ms=config.lat_threshold_ms,
            valley_free=config.valley_free,
        )

        self._computed = _ComputedSets(self._builder)

        # Surrogate groups, elected on a cluster's first touch
        # (:meth:`_group`): the most capable hosts per cluster.  Large
        # clusters get several (§6.3 load sharing): one per
        # ``config.hosts_per_surrogate`` members; replicas serve the
        # primary's close set.
        self._surrogates: Dict[int, List[Surrogate]] = {}

        self._offline: set = set()
        #: Online host count per cluster (its relay capacity right now),
        #: kept up to date in place by every join and leave: the ``sizes``
        #: relay selection reads, so a churned-dark cluster offers zero
        #: relays however attractive its measured paths.
        self.online_sizes = np.array(self._view.sizes, dtype=np.int64)
        self.sessions_run = 0

    # -- wiring ---------------------------------------------------------------

    @property
    def config(self) -> ASAPConfig:
        return self._config

    @property
    def scenario(self) -> Scenario:
        return self._scenario

    @property
    def close_set_builder(self):
        """The system's one close-set builder (surrogates build through
        it; :class:`~repro.control.CloseSetMaintainer` repairs through it)."""
        return self._builder

    def _elect_group(self, idx: int, asn: int, hosts: List) -> List[Surrogate]:
        """Elect a cluster's surrogate group from ``hosts``, primary first."""
        count = max(1, -(-len(hosts) // self._config.hosts_per_surrogate))
        ranked = heapq.nsmallest(count, hosts, key=lambda h: (-h.info.capability(), h.ip))
        group: List[Surrogate] = []
        for host in ranked:
            member = Surrogate(
                cluster=idx,
                asn=asn,
                host=host,
                build=self._computed.build,
            )
            if group:
                member.close_set_source = group[0]
            group.append(member)
        return group

    def _group(self, cluster_index: int) -> List[Surrogate]:
        """A cluster's surrogate group, primary first.

        The first touch elects it from the cluster's full host list,
        exactly as electing every cluster up front would: nothing changes
        a group except re-election, and every membership change touches
        the group (and so elects it) before it re-elects.
        """
        group = self._surrogates.get(cluster_index)
        if group is None:
            view = self._view
            cluster = None
            if isinstance(cluster_index, (int, np.integer)) and 0 <= cluster_index < view.count:
                cluster = self._clusters.clusters.get(view.prefixes[cluster_index])
            if cluster is None:
                raise ProtocolError(f"no surrogate for cluster {cluster_index}")
            index = int(cluster_index)
            group = self._surrogates[index] = self._elect_group(index, cluster.asn, cluster.hosts)
        return group

    def surrogate(
        self, cluster_index: int, requester: Optional[IPv4Address] = None
    ) -> Surrogate:
        """The cluster's serving surrogate.

        Without a requester, the primary.  With one, requests spread
        over the group by IP hash (§6.3 load sharing).
        """
        group = self._group(cluster_index)
        if requester is None or len(group) == 1:
            return group[0]
        return group[requester.value % len(group)]

    def surrogate_group(self, cluster_index: int) -> List[Surrogate]:
        """All surrogates of a cluster (primary first)."""
        return list(self._group(cluster_index))

    def cluster_of_ip(self, ip: IPv4Address) -> int:
        """Matrix index of the cluster containing an end-host IP."""
        cluster = self._clusters.cluster_of(ip)
        return self._view.index_of[cluster.prefix]

    # -- membership -------------------------------------------------------------

    def _mark_offline(self, ip: IPv4Address) -> None:
        if ip not in self._offline:
            self._offline.add(ip)
            self.online_sizes[self.cluster_of_ip(ip)] -= 1

    def _mark_online(self, ip: IPv4Address) -> None:
        if ip in self._offline:
            self._offline.discard(ip)
            self.online_sizes[self.cluster_of_ip(ip)] += 1

    def online_hosts_in_cluster(self, cluster_index: int) -> List:
        """Online member hosts of a cluster, most capable first."""
        cluster = self._clusters.clusters[self._view.prefixes[cluster_index]]
        members = [h for h in cluster.hosts if h.ip not in self._offline]
        members.sort(key=lambda h: (-h.info.capability(), h.ip))
        return members

    def join(self, ip: IPv4Address) -> Surrogate:
        """Join an end host: map its IP to its cluster and publish its
        nodal info to the serving surrogate, which is returned.

        Raises :class:`ProtocolError` when no cluster covers the IP.
        """
        try:
            cluster_index = self.cluster_of_ip(ip)
        except TopologyError as exc:
            raise ProtocolError(f"join from {ip}: {exc}") from None
        self._mark_online(ip)
        surrogate = self.surrogate(cluster_index, requester=ip)
        surrogate.accept_nodal_info(ip, self._scenario.population.by_ip(ip).info)
        return surrogate

    def is_online(self, ip: IPv4Address) -> bool:
        return ip not in self._offline

    def leave(self, ip: IPv4Address) -> Optional[Surrogate]:
        """An end host goes offline (churn).

        If the leaver serves as a surrogate, the cluster re-elects its
        group from the remaining online members; returns the new
        primary in that case.  A
        single-host cluster simply goes dark — its surrogate entry
        remains until a member returns, mirroring how a real system
        only notices on the next failed request.
        """
        if ip in self._offline:
            return None  # already gone; nothing further to tear down
        self._scenario.population.by_ip(ip)  # an unknown IP raises here
        cluster_index = self.cluster_of_ip(ip)
        group = self._group(cluster_index)  # elected before the host goes
        self._mark_offline(ip)
        if all(member.ip != ip for member in group):
            return None
        return self._reelect(cluster_index, excluding=ip)

    def _reelect(self, cluster_index: int, excluding: IPv4Address) -> Optional[Surrogate]:
        """Re-elect a cluster's surrogate group from its online members
        other than ``excluding``; returns the new primary, or None
        (nothing changed) when no such member exists."""
        cluster = self._clusters.clusters[self._view.prefixes[cluster_index]]
        survivors = [h for h in cluster.hosts if h.ip != excluding and h.ip not in self._offline]
        if not survivors:
            return None
        group = self._elect_group(cluster_index, cluster.asn, survivors)
        self._surrogates[cluster_index] = group
        return group[0]

    # -- close sets -----------------------------------------------------------------

    def want(self, clusters: Iterable[int]) -> None:
        """Name clusters whose close sets are about to be asked for: the
        next sweep also computes each whose primary holds no set now."""
        for cluster in clusters:
            primary = self.surrogate(cluster)
            if not primary.has_close_set:
                self._computed.want(cluster, primary.asn)

    # -- calling ------------------------------------------------------------------

    def close_set(self, cluster_index: int) -> CloseClusterSet:
        """The (cached) close cluster set of a cluster."""
        return self.surrogate(cluster_index).close_set()

    def call(self, caller_ip: IPv4Address, callee_ip: IPv4Address) -> ASAPSession:
        """Run one VoIP session between two end hosts: :meth:`call_many`
        of one pair."""
        return self.call_many([(caller_ip, callee_ip)])[0]

    def call_many(
        self, pairs: Iterable[Tuple[IPv4Address, IPv4Address]]
    ) -> List[ASAPSession]:
        """Run one VoIP session per ``(caller, callee)`` pair (paper Fig. 8),
        phase by phase over the whole batch.

        Every caller pings its callee first; only sessions whose direct
        RTT misses the threshold run relay selection.  For those: the
        endpoint close sets nobody has built yet are built in one batch,
        the one-hop step runs for the whole batch
        (:class:`~repro.core.relay_selection.SelectionBatch`), the close
        sets its first hops name are built in one batch, and the two-hop
        step runs for the whole batch over one fetch of each.  Outcomes,
        request counts and observability are those of calling session by
        session: every (session, first hop) fetch bills the requester's
        surrogate-group member, and a set built here is reported
        (``close_set.build``) under the first session that asks for it,
        in the order that session asks — S1, S2, first hops ascending.
        """
        config = self._config
        sessions: List[ASAPSession] = []
        for caller_ip, callee_ip in pairs:
            caller_cluster = self.cluster_of_ip(caller_ip)
            callee_cluster = self.cluster_of_ip(callee_ip)
            self.sessions_run += 1
            direct = self._view.rtt_cell(caller_cluster, callee_cluster)
            sessions.append(
                ASAPSession(
                    caller=caller_ip,
                    callee=callee_ip,
                    caller_cluster=caller_cluster,
                    callee_cluster=callee_cluster,
                    direct_rtt_ms=direct,
                    relay_needed=not (np.isfinite(direct) and direct < config.lat_threshold_ms),
                )
            )
            obs.counter("asap.sessions").inc()
        latent = [session for session in sessions if session.relay_needed]
        if not latent:
            return sessions

        unreported = self._build_missing(
            c for session in latent for c in (session.caller_cluster, session.callee_cluster)
        )
        serve = self.surrogate
        batch = SelectionBatch(
            [
                (
                    serve(session.caller_cluster, requester=session.caller).serve_close_set(),
                    serve(session.callee_cluster, requester=session.callee).serve_close_set(),
                )
                for session in latent
            ],
            self.online_sizes,
            config,
        )
        hops = np.unique(np.concatenate(batch.first_hops)).tolist()
        unreported.update(self._build_missing(hops))
        for session, firsts in zip(latent, batch.first_hops):
            firsts = firsts.tolist()
            for cluster in firsts:  # the fetch, billed as surrogate(cluster, caller) serves it
                group = self._surrogates[cluster]
                group[session.caller.value % len(group)].close_set_requests += 1
            for cluster in (session.caller_cluster, session.callee_cluster, *firsts):
                if cluster in unreported:
                    emit_build_observability(*unreported.pop(cluster))
        selections = batch.expand({cluster: self.close_set(cluster) for cluster in hops})
        for session, selection in zip(latent, selections):
            session.selection = selection
            session.best_relay_rtt_ms = selection.best_rtt_ms()
        one_hop = sum(s.one_hop_ips for s in selections)
        two_hop = sum(s.two_hop_pairs for s in selections)
        obs.counter("asap.sessions.relay_needed").inc(len(latent))
        obs.counter("asap.select.messages").inc(sum(s.messages for s in selections))
        obs.counter("asap.select.quality_paths").inc(one_hop + two_hop)
        obs.counter("asap.select.one_hop_ips").inc(one_hop)
        obs.counter("asap.select.two_hop_pairs").inc(two_hop)
        return sessions

    def _build_missing(self, clusters: Iterable[int]) -> Dict[int, Tuple[CloseClusterSet, int]]:
        """Build, in one batch, the close set of every cluster among
        ``clusters`` whose primary surrogate holds none, and install it
        there.  Returns ``{cluster: (set, asn)}`` — the builds whose
        observability is still to be reported."""
        missing = {
            primary.cluster: primary
            for primary in map(self.surrogate, clusters)
            if not primary.has_close_set
        }
        built = self._computed.take({cluster: primary.asn for cluster, primary in missing.items()})
        for cluster, primary in missing.items():
            primary.adopt(built[cluster])
        return {cluster: (built[cluster], primary.asn) for cluster, primary in missing.items()}

    # -- accounting ------------------------------------------------------------------

    def maintenance_messages(self) -> int:
        """Total probe traffic spent building all materialized close sets
        (an unelected group holds none)."""
        return sum(
            member.maintenance_messages
            for group in self._surrogates.values()
            for member in group
        )
