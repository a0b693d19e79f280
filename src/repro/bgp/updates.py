"""BGP update messages (announce / withdraw) and their application to a RIB.

The paper combines table snapshots with BGP *updates* collected the same
day to get an up-to-date view.  We model updates as a line-oriented stream:

    ANNOUNCE|<timestamp>|<peer-ip>|<prefix>|<as-path>|<origin>
    WITHDRAW|<timestamp>|<peer-ip>|<prefix>
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Tuple

from repro.errors import AddressError, BGPParseError
from repro.netaddr import IPv4Address, IPv4Prefix
from repro.bgp.rib import RIBEntry, RoutingTable, VALID_ORIGINS


@dataclass(frozen=True)
class BGPUpdate:
    """A single announce or withdraw message from one peer."""

    kind: str  # "ANNOUNCE" or "WITHDRAW"
    timestamp: int
    peer: IPv4Address
    prefix: IPv4Prefix
    as_path: Tuple[int, ...] = ()
    origin: str = "IGP"

    def __post_init__(self) -> None:
        if self.kind not in ("ANNOUNCE", "WITHDRAW"):
            raise BGPParseError(f"unknown update kind {self.kind!r}")
        if self.kind == "ANNOUNCE":
            if not self.as_path:
                raise BGPParseError("ANNOUNCE requires a non-empty AS path")
            if self.origin not in VALID_ORIGINS:
                raise BGPParseError(f"invalid origin {self.origin!r}")
        elif self.as_path:
            raise BGPParseError("WITHDRAW must not carry an AS path")

    def to_line(self) -> str:
        if self.kind == "WITHDRAW":
            return f"WITHDRAW|{self.timestamp}|{self.peer}|{self.prefix}"
        path = " ".join(str(a) for a in self.as_path)
        return f"ANNOUNCE|{self.timestamp}|{self.peer}|{self.prefix}|{path}|{self.origin}"

    def to_entry(self) -> RIBEntry:
        """Convert an ANNOUNCE into the RIB entry it installs."""
        if self.kind != "ANNOUNCE":
            raise BGPParseError("only ANNOUNCE updates carry a route")
        return RIBEntry(
            timestamp=self.timestamp,
            peer=self.peer,
            prefix=self.prefix,
            as_path=self.as_path,
            origin=self.origin,
        )


def parse_update_line(line: str) -> BGPUpdate:
    """Parse a single update line."""
    try:
        return _parse_update_fields(line)
    except AddressError as exc:
        raise BGPParseError(f"bad address in {line!r}: {exc}") from exc


def _parse_update_fields(line: str) -> BGPUpdate:
    fields = line.strip().split("|")
    if not fields:
        raise BGPParseError(f"empty update line: {line!r}")
    kind = fields[0]
    if kind == "WITHDRAW":
        if len(fields) != 4:
            raise BGPParseError(f"malformed WITHDRAW: {line!r}")
        _, ts, peer, prefix = fields
        return BGPUpdate(
            kind="WITHDRAW",
            timestamp=_parse_ts(ts, line),
            peer=IPv4Address.from_string(peer),
            prefix=IPv4Prefix.from_string(prefix),
        )
    if kind == "ANNOUNCE":
        if len(fields) != 6:
            raise BGPParseError(f"malformed ANNOUNCE: {line!r}")
        _, ts, peer, prefix, path, origin = fields
        try:
            as_path = tuple(int(p) for p in path.split())
        except ValueError as exc:
            raise BGPParseError(f"non-numeric ASN in {line!r}") from exc
        return BGPUpdate(
            kind="ANNOUNCE",
            timestamp=_parse_ts(ts, line),
            peer=IPv4Address.from_string(peer),
            prefix=IPv4Prefix.from_string(prefix),
            as_path=as_path,
            origin=origin,
        )
    raise BGPParseError(f"unknown update kind in {line!r}")


def parse_update_stream(lines: Iterable[str]) -> Iterator[BGPUpdate]:
    """Parse an update stream, skipping blanks and ``#`` comments."""
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            yield parse_update_line(line)
        except BGPParseError as exc:
            raise BGPParseError(f"line {lineno}: {exc}") from exc


def apply_updates(table: RoutingTable, updates: Iterable[BGPUpdate]) -> int:
    """Apply updates in timestamp order to ``table``; returns count applied."""
    ordered: List[BGPUpdate] = sorted(updates, key=lambda u: u.timestamp)
    for update in ordered:
        if update.kind == "ANNOUNCE":
            table.install(update.to_entry())
        else:
            table.withdraw(update.peer, update.prefix)
    return len(ordered)


def _parse_ts(text: str, line: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise BGPParseError(f"bad timestamp in {line!r}") from exc
