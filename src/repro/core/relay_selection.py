"""``select-close-relay()`` — paper Fig. 10.

Given the close cluster sets S1 (caller's) and S2 (callee's):

- **one-hop**: every cluster in S1 ∩ S2 whose relay path
  ``relaylat(h1-r-h2) = S1.rtt(r) + S2.rtt(r) + relay_delay`` beats the
  latency threshold contributes *all of its member IPs* as one-hop
  relay candidates (set OS);
- **two-hop**: if OS holds fewer than ``sizeT`` candidate IPs, the
  caller fetches the close sets of one-hop candidate clusters' surrogates
  (2 messages each) and adds IP *pairs* (r1, r2) with
  ``relaylat(h1-r1-r2-h2) < latT`` (set TS).

Message accounting follows Section 7.3: one-hop selection costs 2
messages (obtaining S2 from the callee); each two-hop close-set fetch
costs 2 more.

A caller on a network waits between the steps for the close sets the
first one names, so they are two functions, :func:`select_one_hop` and
:func:`select_two_hop`; :func:`select_close_relay` composes them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Mapping, Optional, Tuple

import numpy as np

from repro.core.config import ASAPConfig
from repro.measurement.latency import RELAY_DELAY_RTT_MS
from repro.worldarrays.closesets import CloseClusterSet


@dataclass(frozen=True)
class OneHopCandidate:
    """A one-hop relay cluster with its estimated relay-path RTT."""

    cluster: int
    relay_rtt_ms: float
    member_ips: int  # number of individual relay IPs this cluster offers


@dataclass(frozen=True)
class TwoHopCandidate:
    """A two-hop relay cluster pair with its estimated relay-path RTT."""

    first: int
    second: int
    relay_rtt_ms: float
    member_pairs: int  # |cluster(first)| × |cluster(second)| IP pairs


@dataclass
class RelaySelection:
    """Result of select-close-relay for one calling session."""

    one_hop: List[OneHopCandidate] = field(default_factory=list)
    two_hop: List[TwoHopCandidate] = field(default_factory=list)
    messages: int = 0
    two_hop_queries: int = 0
    #: The one-hop candidates whose clusters' close sets the two-hop
    #: step asks for, in fetch order (empty when |OS| reached sizeT).
    first_hops: List[OneHopCandidate] = field(default_factory=list)

    @property
    def one_hop_ips(self) -> int:
        """|OS| — individual one-hop relay IPs found."""
        return sum(c.member_ips for c in self.one_hop)

    @property
    def two_hop_pairs(self) -> int:
        """|TS| — two-hop relay IP pairs found."""
        return sum(c.member_pairs for c in self.two_hop)

    @property
    def quality_paths(self) -> int:
        """Total quality relay paths this session can use."""
        return self.one_hop_ips + self.two_hop_pairs

    def best_rtt_ms(self) -> Optional[float]:
        """Shortest relay-path RTT among all candidates, or None."""
        rtts = [c.relay_rtt_ms for c in self.one_hop] + [
            c.relay_rtt_ms for c in self.two_hop
        ]
        return min(rtts) if rtts else None


def ranked_relay_clusters(
    selection: Optional["RelaySelection"],
) -> List[Tuple[float, int]]:
    """Relay candidate clusters of a selection, best relay-path RTT first.

    One-hop candidates contribute their cluster; two-hop candidates
    contribute their first hop (the cluster the caller forwards media
    into).  Duplicates keep their best RTT.  This ranking is shared by
    the simulated runtime's relay pick / failover and the service
    layer's host agents, so both tiers chase the same candidates in the
    same order.
    """
    if selection is None:
        return []
    ranked: List[Tuple[float, int]] = [
        (c.relay_rtt_ms, c.cluster) for c in selection.one_hop
    ]
    ranked += [(c.relay_rtt_ms, c.first) for c in selection.two_hop]
    ranked.sort()
    seen: set = set()
    out: List[Tuple[float, int]] = []
    for rtt, cluster in ranked:
        if cluster not in seen:
            seen.add(cluster)
            out.append((rtt, cluster))
    return out


def select_close_relay(
    s1: CloseClusterSet,
    s2: CloseClusterSet,
    cluster_size: Callable[[int], int],
    close_set_of: Callable[[int], CloseClusterSet],
    config: Optional[ASAPConfig] = None,
) -> RelaySelection:
    """Run select-close-relay for a session between s1's and s2's hosts.

    ``cluster_size`` maps a cluster index to its online host count;
    ``close_set_of`` fetches another surrogate's close cluster set (the
    two-hop step; each call is billed 2 messages), first hops ascending.
    """
    if config is None:
        config = ASAPConfig()
    selection = select_one_hop(s1, s2, cluster_size, config)
    fetched = {c.cluster: close_set_of(c.cluster) for c in selection.first_hops}
    return select_two_hop(selection, s1, s2, fetched, cluster_size, config)


def select_one_hop(
    s1: CloseClusterSet,
    s2: CloseClusterSet,
    cluster_size: Callable[[int], int],
    config: ASAPConfig,
) -> RelaySelection:
    """The one-hop step: fill ``one_hop`` from S1 ∩ S2, bill its 2
    messages, and name in ``first_hops`` the candidates whose close sets
    :func:`select_two_hop` needs.

    Reads S2's leg for every row of S1 out of one dense table
    (:func:`_leg_table`); a cluster off S2 reads +inf and fails the
    threshold.  The sum keeps the scalar specification's left-to-right
    operand order (``tests/oracles.py``), so every relay RTT is the same
    float, and S1's rows ascend, so candidates come out by cluster.
    """
    result = RelaySelection(messages=2)  # h1 obtains S2 from h2 (request + response)
    c1, rtt1 = s1.rows()
    relay_rtt = rtt1 + _legs(_leg_table(s2), c1) + RELAY_DELAY_RTT_MS
    close = relay_rtt < config.lat_threshold_ms
    for cluster, rtt in zip(c1[close].tolist(), relay_rtt[close].tolist()):
        size = cluster_size(cluster)
        if size <= 0:
            continue  # churned dark: no hosts left to relay through
        result.one_hop.append(
            OneHopCandidate(cluster=cluster, relay_rtt_ms=rtt, member_ips=size)
        )

    # Two-hop expands through the close sets of one-hop candidates (clusters
    # already known close to h1), and only while OS is short of sizeT.
    if result.one_hop_ips < config.size_threshold:
        result.first_hops = list(result.one_hop)
    return result


def select_two_hop(
    selection: RelaySelection,
    s1: CloseClusterSet,
    s2: CloseClusterSet,
    fetched: Mapping[int, CloseClusterSet],
    cluster_size: Callable[[int], int],
    config: ASAPConfig,
) -> RelaySelection:
    """The two-hop step: expand ``selection.first_hops`` through their
    ``fetched`` close sets (keyed by cluster) into ``two_hop``.

    Every named first hop is billed its query (2 messages) whether or
    not its set arrived; one that did not contributes no candidates.
    The arrived sets' rows are concatenated and scored in one pass: the
    first legs come from one lookup of the first hops in S1, the last
    legs from S2's dense table.  First hops ascend and each fetched
    set's rows ascend, so candidates come out in (r1, r2) order.
    Returns ``selection``.
    """
    firsts = selection.first_hops
    selection.messages += 2 * len(firsts)
    selection.two_hop_queries += len(firsts)
    arrived = [first for first in firsts if first.cluster in fetched]
    if not arrived:
        return selection
    rows = [fetched[first.cluster].rows() for first in arrived]
    via = np.concatenate([ids for ids, _ in rows])
    via_rtt = np.concatenate([rtt for _, rtt in rows])
    owner = np.repeat(np.arange(len(arrived)), [len(ids) for ids, _ in rows])
    r1 = np.array([first.cluster for first in arrived], dtype=np.int64)
    c1, rtt1 = s1.rows()
    lead = rtt1[np.searchsorted(c1, r1)]  # every first hop is a member of S1
    relay_rtt = (
        lead[owner] + via_rtt + _legs(_leg_table(s2), via) + 2.0 * RELAY_DELAY_RTT_MS
    )
    close = (relay_rtt < config.lat_threshold_ms) & (via != r1[owner])
    for at, r2, rtt in zip(owner[close].tolist(), via[close].tolist(), relay_rtt[close].tolist()):
        first = arrived[at]
        pairs = first.member_ips * cluster_size(r2)
        if pairs <= 0:
            continue  # the second leg's cluster has churned dark
        selection.two_hop.append(
            TwoHopCandidate(first=first.cluster, second=r2, relay_rtt_ms=rtt, member_pairs=pairs)
        )
    return selection


def _leg_table(s2: CloseClusterSet) -> np.ndarray:
    """S2's leg RTT indexed by cluster id: +inf for a cluster off S2,
    and one +inf sentinel slot past S2's largest member, onto which
    :func:`_legs` clips every larger id.  Its width depends on S2 alone."""
    ids, rtt_ms = s2.rows()
    table = np.full(int(ids[-1]) + 2 if len(ids) else 1, np.inf)
    table[ids] = rtt_ms
    return table


def _legs(table: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """``table`` read at cluster ``ids`` (ids are non-negative)."""
    return table[np.minimum(ids, len(table) - 1)]
