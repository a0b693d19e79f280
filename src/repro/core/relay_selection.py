"""``select-close-relay()`` — paper Fig. 10, for a batch of sessions.

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

:class:`SelectionBatch` runs each step for a batch of sessions as array
kernels (a dial is a batch of one and waits between the steps for the
sets the first one names); candidates are arrays.  Every sum keeps the
operand order of ``tests/oracles.py::scalar_select_close_relay``, so
every relay RTT is the float that scalar specification computes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import ASAPConfig
from repro.measurement.latency import RELAY_DELAY_RTT_MS
from repro.worldarrays.closesets import CELLS, CloseClusterSet

#: One-hop candidates (relay cluster, relay-path RTT, online member IPs)
#: by cluster, and two-hop ones (r1, r2, RTT, ``|r1| × |r2|`` IP pairs) by (r1, r2).
ONE_HOP = np.dtype([("cluster", "i8"), ("rtt_ms", "f8"), ("ips", "i8")])
TWO_HOP = np.dtype([("first", "i8"), ("second", "i8"), ("rtt_ms", "f8"), ("pairs", "i8")])
_NO_TWO_HOP, _NO_IDS, _NO_RTTS = np.zeros(0, TWO_HOP), np.zeros(0, np.int64), np.zeros(0)


@dataclass(eq=False)
class RelaySelection:
    """Result of select-close-relay for one calling session."""

    one_hop: np.ndarray = field(default_factory=lambda: np.zeros(0, ONE_HOP))
    two_hop: np.ndarray = field(default_factory=lambda: np.zeros(0, TWO_HOP))
    messages: int = 0
    two_hop_queries: int = 0

    @property
    def one_hop_ips(self) -> int:
        """|OS| — individual one-hop relay IPs found."""
        return int(self.one_hop["ips"].sum())

    @property
    def two_hop_pairs(self) -> int:
        """|TS| — two-hop relay IP pairs found."""
        return int(self.two_hop["pairs"].sum())

    @property
    def quality_paths(self) -> int:
        """Total quality relay paths this session can use."""
        return self.one_hop_ips + self.two_hop_pairs

    def best_rtt_ms(self) -> Optional[float]:
        """Shortest relay-path RTT among all candidates, or None."""
        rtts = np.concatenate((self.one_hop["rtt_ms"], self.two_hop["rtt_ms"]))
        return float(rtts.min()) if len(rtts) else None

    def one_hop_ranked(self) -> List[Tuple[float, int]]:
        """``(relay-path RTT, cluster)`` of the one-hop candidates, best
        first (ties by cluster)."""
        ranked = self.one_hop[np.argsort(self.one_hop["rtt_ms"], kind="stable")]
        return list(zip(ranked["rtt_ms"].tolist(), ranked["cluster"].tolist()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, RelaySelection):
            return NotImplemented
        return (
            (self.messages, self.two_hop_queries) == (other.messages, other.two_hop_queries)
            and np.array_equal(self.one_hop, other.one_hop)
            and np.array_equal(self.two_hop, other.two_hop)
        )


def ranked_relay_clusters(selection: Optional[RelaySelection]) -> List[Tuple[float, int]]:
    """Relay candidate clusters of a selection, best relay-path RTT first.

    One-hop candidates contribute their cluster, two-hop ones their
    first hop (where the caller forwards media); ties go to the lower
    cluster, duplicates keep their best RTT.  The simulated runtime and
    the wire host agents both chase relays in this order.
    """
    if selection is None:
        return []
    one_hop, two_hop = selection.one_hop, selection.two_hop
    rtts = one_hop["rtt_ms"].tolist() + two_hop["rtt_ms"].tolist()
    clusters = one_hop["cluster"].tolist() + two_hop["first"].tolist()
    best: Dict[int, float] = {}
    for rtt, cluster in sorted(zip(rtts, clusters)):
        best.setdefault(cluster, rtt)
    return [(rtt, cluster) for cluster, rtt in best.items()]


class SelectionBatch:
    """select-close-relay for a batch of ``(S1, S2)`` sessions.

    Construction runs the one-hop step: all S1 rows against a (sessions
    × clusters) table of S2 legs (+inf off S2), one threshold.
    ``sizes[c]`` is cluster ``c``'s online host count (0: churned dark,
    no relay).  ``selections[i]`` holds session ``i``'s one-hop
    candidates and bill, ``first_hops[i]`` the clusters its two-hop step
    expands through (its one-hop candidates while ``|OS| < sizeT``).
    Both steps run on blocks of sessions that fit in ``CELLS`` cells.
    """

    def __init__(
        self,
        endpoints: Iterable[Tuple[CloseClusterSet, CloseClusterSet]],
        sizes: np.ndarray,
        config: Optional[ASAPConfig] = None,
    ) -> None:
        self._config = config = config if config is not None else ASAPConfig()
        self._sizes = sizes
        self._endpoints = endpoints = list(endpoints)
        self.selections: List[RelaySelection] = []
        self.first_hops: List[np.ndarray] = []
        self._leads: List[np.ndarray] = []  # S1's RTT to each first hop
        self._legs: Optional[np.ndarray] = None
        step = max(1, CELLS // len(sizes))
        for first in range(0, len(endpoints), step):
            last = min(first + step, len(endpoints))
            session, c1, rtt1 = _stack([s1 for s1, _ in endpoints[first:last]])
            relay_rtt = rtt1 + self._leg_table(first, last)[session, c1] + RELAY_DELAY_RTT_MS
            keep = np.nonzero((relay_rtt < config.lat_threshold_ms) & (sizes[c1] > 0))[0]
            rows = np.empty(len(keep), ONE_HOP)
            rows["cluster"], rows["rtt_ms"] = c1[keep], relay_rtt[keep]
            rows["ips"] = sizes[rows["cluster"]]
            edges = np.searchsorted(session[keep], np.arange(last - first + 1))
            ips = np.concatenate(([0], np.cumsum(rows["ips"])))[edges]
            short = (np.diff(ips) < config.size_threshold).tolist()
            for lo, hi, expands in zip(edges[:-1].tolist(), edges[1:].tolist(), short):
                self.selections.append(RelaySelection(rows[lo:hi], _NO_TWO_HOP, messages=2))
                self.first_hops.append(rows["cluster"][lo:hi] if expands else _NO_IDS)
                self._leads.append(rtt1[keep[lo:hi]] if expands else rtt1[:0])

    def expand(self, fetched: Mapping[int, CloseClusterSet]) -> List[RelaySelection]:
        """The two-hop step over the ``fetched`` sets (by cluster);
        returns ``selections``.  Every first hop is billed 2 messages;
        one whose set did not arrive adds nothing.  Row ``via`` of
        ``r1``'s set scores ``((lead + via_rtt) + leg) + 2·delay`` (S1's,
        the set's and S2's RTTs) and passes below latT with ``via != r1``.
        Terms are ≥ 0 and rounding is monotone, so only rows with
        ``(lead + via_rtt) + 2·delay < latT`` can pass: once sets are
        shared, those (and a few more) are all :class:`_PairRows` reads.
        """
        expanding = [i for i, firsts in enumerate(self.first_hops) if len(firsts)]
        for i in expanding:
            self.selections[i].messages += 2 * len(self.first_hops[i])
            self.selections[i].two_hop_queries += len(self.first_hops[i])
        if not expanding:
            return self.selections
        # One entry per (session, first hop); a set that did not arrive reads as empty.
        hops = (
            np.concatenate([self.first_hops[i] for i in expanding]),
            np.repeat(expanding, [len(self.first_hops[i]) for i in expanding]),
            np.concatenate([self._leads[i] for i in expanding]),
            np.concatenate([self.selections[i].one_hop["ips"] for i in expanding]),
        )
        rows = _PairRows(fetched, hops[0], hops[2], self._config.lat_threshold_ms)
        per_session = np.bincount(hops[1], weights=rows.count, minlength=len(self.selections))
        for first, last in _blocks(per_session + len(self._sizes)):
            lo, hi = np.searchsorted(hops[1], (first, last))
            self._two_hop(first, last, *(column[lo:hi] for column in hops), *rows.block(lo, hi))
        return self.selections

    def _two_hop(self, first, last, firsts, session, lead, ips, via, via_rtt, count, by_rtt):
        """Score sessions ``first .. last - 1`` over their first hops'
        rows; a first hop's rows are contiguous, so its terms repeat."""
        if not len(firsts):
            return
        legs = self._leg_table(first, last).ravel()
        if last > first + 1:  # offset each row into its own session's row of the table
            legs = legs[np.repeat((session - first) * len(self._sizes), count) + via]
        else:
            legs = legs[via]
        relay_rtt = np.repeat(lead, count)
        relay_rtt += via_rtt
        relay_rtt += legs
        relay_rtt += 2.0 * RELAY_DELAY_RTT_MS
        close = (relay_rtt < self._config.lat_threshold_ms) & (via != np.repeat(firsts, count))
        close = np.nonzero(close)[0]
        owner = np.searchsorted(np.cumsum(count), close, side="right")
        via, relay_rtt = via[close], relay_rtt[close]
        pairs = ips[owner] * self._sizes[via]
        keep = np.nonzero(pairs > 0)[0]  # the second leg's cluster may have churned dark
        if by_rtt:  # a first hop's rows came by RTT; candidates go out by (r1, r2)
            keep = keep[np.lexsort((via[keep], owner[keep]))]
        found = np.empty(len(keep), TWO_HOP)
        found["first"], found["second"] = firsts[owner[keep]], via[keep]
        found["rtt_ms"], found["pairs"] = relay_rtt[keep], pairs[keep]
        if last == first + 1:
            self.selections[first].two_hop = found
            return
        edges = np.searchsorted(session[owner[keep]], np.arange(first, last + 1)).tolist()
        for index, lo, hi in zip(range(first, last), edges, edges[1:]):
            if lo < hi:
                self.selections[index].two_hop = found[lo:hi]

    def _leg_table(self, first: int, last: int) -> np.ndarray:
        """S2's leg RTT of sessions ``first .. last - 1`` by cluster id,
        one row per session: +inf for a cluster off its S2.  A batch
        that fits one table keeps it for the two-hop step."""
        if self._legs is not None:
            return self._legs[first:last]
        session, ids, rtt_ms = _stack([s2 for _, s2 in self._endpoints[first:last]])
        table = np.full((last - first, len(self._sizes)), np.inf)
        table[session, ids] = rtt_ms
        if last - first == len(self._endpoints):
            self._legs = table
        return table


class _PairRows:
    """The fetched close set rows each (session, first hop) pair reads,
    pair by pair (a set that did not arrive reads as empty).  While no
    set is read twice they are the sets one after another.  Otherwise
    each set is stored once, its rows sorted by RTT, and a pair reads
    only the prefix that can pass, ``(lead + via_rtt) + 2·delay <
    latT`` (plus a margin far above rounding error): sorted by ``set *
    stride + rtt`` (``stride`` a power of two above every RTT, so a
    set's rows stay together), every pair's prefix is found with one
    ``searchsorted``."""

    def __init__(
        self,
        fetched: Mapping[int, CloseClusterSet],
        firsts: np.ndarray,
        lead: np.ndarray,
        lat_threshold_ms: float,
    ) -> None:
        clusters = firsts.tolist()
        self._shared = len(set(clusters)) < len(clusters)
        if self._shared:
            owners, at = np.unique(firsts, return_inverse=True)
            clusters = owners.tolist()
        rows = [fetched[c].rows() if c in fetched else (_NO_IDS, _NO_RTTS) for c in clusters]
        self.count = np.array([len(ids) for ids, _ in rows], dtype=np.int64)
        self._start = np.concatenate(([0], np.cumsum(self.count)))
        self.ids = np.concatenate([_NO_IDS, *(ids for ids, _ in rows)])
        self.rtt_ms = np.concatenate([_NO_RTTS, *(rtt for _, rtt in rows)])
        if self._shared:
            stride = 2.0 ** np.ceil(np.log2(self.rtt_ms.max(initial=0.0) + 1.0))
            keys = np.repeat(np.arange(len(owners)) * stride, self.count) + self.rtt_ms
            order = np.argsort(keys)
            self.ids, self.rtt_ms = self.ids[order], self.rtt_ms[order]
            start, end = self._start[at], self._start[at + 1]
            bound = (lat_threshold_ms - 2.0 * RELAY_DELAY_RTT_MS) - lead
            bound += 1e-6 * np.abs(bound) + 1e-6
            stop = np.searchsorted(keys[order], at * stride + bound, side="right")
            self._start, self.count = start, np.clip(stop, start, end) - start

    def block(self, lo: int, hi: int):
        """``(via, via_rtt, count, by_rtt)``: the rows of pairs ``lo ..
        hi - 1``, by RTT within a pair or (while no set is shared) by id."""
        count = self.count[lo:hi]
        if not self._shared:
            rows = slice(self._start[lo], self._start[hi])
            return self.ids[rows], self.rtt_ms[rows], count, False
        ends = np.cumsum(count)
        offset = np.repeat(self._start[lo:hi] - (ends - count), count)
        row = np.arange(len(offset)) + offset
        return self.ids[row], self.rtt_ms[row], count, True


def select_close_relay(
    s1: CloseClusterSet, s2: CloseClusterSet, cluster_size: np.ndarray,
    close_set_of: Callable[[int], CloseClusterSet], config: Optional[ASAPConfig] = None,
) -> RelaySelection:
    """Select-close-relay for one session (a batch of one): S1, S2, the
    online host count per cluster and ``close_set_of(cluster)``, which
    fetches a first hop's close set (2 messages each), ascending."""
    batch = SelectionBatch([(s1, s2)], cluster_size, config)
    (selection,) = batch.expand({c: close_set_of(c) for c in batch.first_hops[0].tolist()})
    return selection


def _blocks(cells: np.ndarray) -> Iterator[Tuple[int, int]]:
    """Runs ``[first, last)`` of sessions with at most ``CELLS`` cells (or one session)."""
    ends, first = np.cumsum(cells), 0
    while first < len(cells):
        bound = ends[first] - cells[first] + CELLS
        last = max(first + 1, int(np.searchsorted(ends, bound, side="right")))
        yield first, last
        first = last


def _stack(sets: Sequence[CloseClusterSet]) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows of ``sets`` one after another: ``(set index, ids, rtt_ms)``."""
    if len(sets) == 1:
        return np.zeros(len(sets[0].ids), dtype=np.int64), sets[0].ids, sets[0].rtt_ms
    session = np.repeat(np.arange(len(sets)), np.fromiter(map(len, sets), np.int64, len(sets)))
    ids = np.concatenate([_NO_IDS, *(s.ids for s in sets)])
    return session, ids, np.concatenate([_NO_RTTS, *(s.rtt_ms for s in sets)])
