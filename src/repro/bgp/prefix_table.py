"""IP-prefix → origin-AS mapping table (Section 3.1 of the paper).

Built from a :class:`~repro.bgp.rib.RoutingTable`, this answers the two
questions the measurement pipeline and the ASAP bootstrap need:

- which announced prefix most specifically covers an end-host IP, and
- which AS originates that prefix.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import BGPParseError
from repro.netaddr import IPv4Address, IPv4Prefix, PrefixTrie
from repro.bgp.rib import RIBEntry, RoutingTable


class PrefixOriginTable:
    """Longest-prefix-match table mapping prefixes to origin ASes.

    When multiple peers disagree on the origin AS for a prefix (MOAS
    conflicts happen in real tables), the majority origin wins, with the
    lowest ASN as deterministic tie-break.
    """

    def __init__(self) -> None:
        self._trie: PrefixTrie[int] = PrefixTrie()
        self._prefixes_by_as: Dict[int, List[IPv4Prefix]] = defaultdict(list)

    @classmethod
    def from_routing_table(cls, table: RoutingTable) -> "PrefixOriginTable":
        """Build from all routes in a collector table."""
        votes: Dict[IPv4Prefix, Counter] = defaultdict(Counter)
        for entry in table.entries():
            votes[entry.prefix][entry.origin_as] += 1
        built = cls()
        for prefix, counter in votes.items():
            best = min(counter.items(), key=lambda kv: (-kv[1], kv[0]))[0]
            built.add(prefix, best)
        return built

    @classmethod
    def from_entries(cls, entries: Iterable[RIBEntry]) -> "PrefixOriginTable":
        return cls.from_routing_table(RoutingTable.from_entries(entries))

    def add(self, prefix: IPv4Prefix, origin_as: int) -> None:
        """Insert a prefix→origin mapping (overwrites an existing one)."""
        if origin_as <= 0:
            raise BGPParseError(f"non-positive origin AS {origin_as}")
        previous = self._trie.get(prefix)
        if previous is not None:
            self._prefixes_by_as[previous].remove(prefix)
        self._trie.insert(prefix, origin_as)
        self._prefixes_by_as[origin_as].append(prefix)

    def lookup(self, address: IPv4Address) -> Optional[Tuple[IPv4Prefix, int]]:
        """Longest-match an address to ``(prefix, origin AS)``, or None."""
        return self._trie.longest_match(address)

    def origin_of(self, address: IPv4Address) -> Optional[int]:
        """The origin AS covering an address, or None if unrouted."""
        match = self.lookup(address)
        return None if match is None else match[1]

    def prefixes_of(self, asn: int) -> List[IPv4Prefix]:
        """All prefixes originated by an AS (an AS can announce several)."""
        return sorted(self._prefixes_by_as.get(asn, []))

    def ases(self) -> List[int]:
        """All origin ASes present in the table."""
        return sorted(asn for asn, pfx in self._prefixes_by_as.items() if pfx)

    def __len__(self) -> int:
        return len(self._trie)

    def __contains__(self, prefix: IPv4Prefix) -> bool:
        return prefix in self._trie
