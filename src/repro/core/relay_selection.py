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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.core.close_cluster import CloseClusterSet
from repro.core.config import ASAPConfig


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
    two-hop step; each call is billed 2 messages).

    Works on the sets' sorted :meth:`CloseClusterSet.rows`: the one-hop
    intersection is a sorted-array intersection, each two-hop expansion
    a ``searchsorted`` membership test of the fetched set in S2.  Sums
    keep the scalar specification's left-to-right operand order
    (``tests/oracles.py``), so every relay RTT is the same float.
    """
    if config is None:
        config = ASAPConfig()
    lat_threshold = config.lat_threshold_ms
    result = RelaySelection()
    result.messages += 2  # h1 obtains S2 from h2 (request + response)

    # One-hop: intersect close sets.
    c1, rtt1 = s1.rows()
    c2, rtt2 = s2.rows()
    common, at1, at2 = np.intersect1d(c1, c2, assume_unique=True, return_indices=True)
    leg1 = rtt1[at1]
    relay_rtt = leg1 + rtt2[at2] + config.relay_delay_rtt_ms
    close = relay_rtt < lat_threshold
    first_hops: List[Tuple[int, float, int]] = []  # (cluster, S1 rtt, size)
    for cluster, leg, rtt in zip(
        common[close].tolist(), leg1[close].tolist(), relay_rtt[close].tolist()
    ):
        size = cluster_size(cluster)
        if size <= 0:
            continue  # churned dark: no hosts left to relay through
        result.one_hop.append(
            OneHopCandidate(cluster=cluster, relay_rtt_ms=rtt, member_ips=size)
        )
        first_hops.append((cluster, leg, size))

    if result.one_hop_ips >= config.size_threshold:
        return result

    # Two-hop: expand through the close sets of one-hop candidate
    # clusters (the surrogates of clusters already known close to h1).
    # First hops ascend and each fetched set's rows ascend, so
    # candidates come out in (r1, r2) order.
    if config.max_two_hop_queries is not None:
        first_hops = first_hops[: config.max_two_hop_queries]
    both_delays = 2.0 * config.relay_delay_rtt_ms
    for r1, leg, size1 in first_hops:
        via, via_rtt = close_set_of(r1).rows()
        result.messages += 2
        result.two_hop_queries += 1
        # r1 is in S2, so S2 is not empty and the clipped index is valid.
        at2 = np.minimum(np.searchsorted(c2, via), len(c2) - 1)
        keep = (c2[at2] == via) & (via != r1)
        relay_rtt = leg + via_rtt[keep] + rtt2[at2[keep]] + both_delays
        close = relay_rtt < lat_threshold
        for r2, rtt in zip(via[keep][close].tolist(), relay_rtt[close].tolist()):
            pairs = size1 * cluster_size(r2)
            if pairs <= 0:
                continue  # the second leg's cluster has churned dark
            result.two_hop.append(
                TwoHopCandidate(first=r1, second=r2, relay_rtt_ms=rtt, member_pairs=pairs)
            )
    return result
