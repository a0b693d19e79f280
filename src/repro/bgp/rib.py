"""BGP RIB entries and a line-oriented dump format.

The paper consumes RouteViews/RIPE RIS table snapshots.  We define an
equivalent plain-text dump format (one route per line) that both our
synthetic topology generator emits and this parser ingests, so the whole
"collect BGP tables → build prefix/AS mapping" pipeline is exercised for
real rather than bypassed.

Dump line format (pipe-separated, comments with ``#``)::

    RIB|<timestamp>|<peer-ip>|<prefix>|<as-path: space separated>|<origin>

Example::

    RIB|1127692800|10.0.0.1|192.0.2.0/24|7018 3356 64512|IGP
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Dict, Iterable, Iterator, List, Tuple

from repro.errors import AddressError, BGPParseError
from repro.netaddr import IPv4Address, IPv4Prefix

VALID_ORIGINS = ("IGP", "EGP", "INCOMPLETE")


@dataclass(frozen=True)
class RIBEntry:
    """One route in a BGP routing table snapshot.

    ``as_path`` is ordered from the collecting peer toward the origin AS,
    matching how RouteViews exports paths; ``origin_as`` is therefore the
    last element.
    """

    timestamp: int
    peer: IPv4Address
    prefix: IPv4Prefix
    as_path: Tuple[int, ...]
    origin: str = "IGP"

    def __post_init__(self) -> None:
        if not self.as_path:
            raise BGPParseError(f"empty AS path for {self.prefix}")
        if self.origin not in VALID_ORIGINS:
            raise BGPParseError(f"invalid origin attribute {self.origin!r}")
        if any(asn <= 0 for asn in self.as_path):
            raise BGPParseError(f"non-positive ASN in path {self.as_path}")

    @property
    def origin_as(self) -> int:
        """The AS that originated the prefix (last ASN on the path)."""
        return self.as_path[-1]

    def without_prepending(self) -> Tuple[int, ...]:
        """AS path with consecutive duplicate ASNs collapsed.

        Operators prepend their own ASN for traffic engineering; collapsed
        paths are what relationship inference should see.
        """
        collapsed: List[int] = []
        for asn in self.as_path:
            if not collapsed or collapsed[-1] != asn:
                collapsed.append(asn)
        return tuple(collapsed)

    def to_line(self) -> str:
        path = " ".join(str(a) for a in self.as_path)
        return f"RIB|{self.timestamp}|{self.peer}|{self.prefix}|{path}|{self.origin}"


def _as_path(text: str) -> Tuple[int, ...]:
    return tuple(int(p) for p in text.split())


#: Parsers of a dump line's peer, prefix and AS-path fields.
_FIELD_PARSERS = (IPv4Address.from_string, IPv4Prefix.from_string, _as_path)


def parse_rib_line(line: str, parsers: Tuple[Callable, ...] = _FIELD_PARSERS) -> RIBEntry:
    """Parse one dump line into a :class:`RIBEntry` (``parsers``: see
    :func:`parse_rib_dump`, which passes memoized ones)."""
    parse_peer, parse_prefix, parse_path = parsers
    fields = line.strip().split("|")
    if len(fields) != 6 or fields[0] != "RIB":
        raise BGPParseError(f"malformed RIB line: {line!r}")
    _, ts, peer, prefix, path, origin = fields
    try:
        timestamp = int(ts)
    except ValueError as exc:
        raise BGPParseError(f"bad timestamp in {line!r}") from exc
    if not path.strip():
        raise BGPParseError(f"empty AS path in {line!r}")
    try:
        as_path = parse_path(path)
    except ValueError as exc:
        raise BGPParseError(f"non-numeric ASN in {line!r}") from exc
    try:
        return RIBEntry(
            timestamp=timestamp,
            peer=parse_peer(peer),
            prefix=parse_prefix(prefix),
            as_path=as_path,
            origin=origin,
        )
    except AddressError as exc:
        raise BGPParseError(f"bad address in {line!r}: {exc}") from exc


def parse_rib_dump(lines: Iterable[str]) -> Iterator[RIBEntry]:
    """Parse a dump (iterable of lines), skipping blanks and ``#`` comments.

    A table seen from a few vantages repeats the same few peer, prefix
    and path strings on thousands of lines: each distinct string is
    parsed once per dump (a parse that raises is not remembered).
    """
    parsers = tuple(lru_cache(maxsize=None)(parse) for parse in _FIELD_PARSERS)
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            yield parse_rib_line(line, parsers)
        except BGPParseError as exc:
            raise BGPParseError(f"line {lineno}: {exc}") from exc


def format_rib_dump(entries: Iterable[RIBEntry]) -> str:
    """Serialize entries back to dump text (inverse of parse_rib_dump)."""
    return "\n".join(entry.to_line() for entry in entries) + "\n"


@dataclass
class RoutingTable:
    """A mutable BGP table: best route per (peer, prefix).

    Mirrors a collector's view — multiple peers may carry routes for the
    same prefix.  Updates (:mod:`repro.bgp.updates`) mutate this table.
    """

    routes: Dict[Tuple[IPv4Address, IPv4Prefix], RIBEntry] = field(default_factory=dict)

    @classmethod
    def from_entries(cls, entries: Iterable[RIBEntry]) -> "RoutingTable":
        table = cls()
        for entry in entries:
            table.install(entry)
        return table

    def install(self, entry: RIBEntry) -> None:
        """Install/replace the route from ``entry.peer`` for the prefix."""
        self.routes[(entry.peer, entry.prefix)] = entry

    def withdraw(self, peer: IPv4Address, prefix: IPv4Prefix) -> bool:
        """Remove a peer's route for a prefix; True if one was present."""
        return self.routes.pop((peer, prefix), None) is not None

    def entries(self) -> Iterator[RIBEntry]:
        return iter(self.routes.values())

    def __len__(self) -> int:
        return len(self.routes)
