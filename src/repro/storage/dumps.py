"""File I/O for BGP RIB dumps and update streams (the text formats of
:mod:`repro.bgp.rib` / :mod:`repro.bgp.updates`)."""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, List, Union

from repro.bgp.asgraph import ASGraph
from repro.bgp.rib import RIBEntry, format_rib_dump, parse_rib_dump
from repro.bgp.updates import BGPUpdate, parse_update_stream
from repro.errors import BGPParseError

PathLike = Union[str, Path]


def write_rib_file(path: PathLike, entries: Iterable[RIBEntry]) -> int:
    """Write a RIB dump file; returns the number of routes written."""
    entries = list(entries)
    text = format_rib_dump(entries)
    Path(path).write_text(
        "# repro RIB dump — format: RIB|ts|peer|prefix|as-path|origin\n" + text,
        encoding="utf-8",
    )
    return len(entries)


def read_rib_file(path: PathLike) -> List[RIBEntry]:
    """Parse a RIB dump file (comments and blank lines ignored)."""
    with Path(path).open(encoding="utf-8") as handle:
        return list(parse_rib_dump(handle))


def write_update_file(path: PathLike, updates: Iterable[BGPUpdate]) -> int:
    """Write an update-stream file; returns the number of updates."""
    updates = list(updates)
    lines = [
        "# repro BGP updates — ANNOUNCE|ts|peer|prefix|as-path|origin / WITHDRAW|ts|peer|prefix"
    ]
    lines.extend(update.to_line() for update in updates)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return len(updates)


def read_update_file(path: PathLike) -> List[BGPUpdate]:
    """Parse an update-stream file."""
    with Path(path).open(encoding="utf-8") as handle:
        return list(parse_update_stream(handle))


def write_asgraph_file(path: PathLike, graph) -> int:
    """Serialize an annotated AS graph (one edge per line).

    Format: ``P2C|provider|customer``, ``P2P|a|b``, ``S2S|a|b`` — the
    artifact a bootstrap disseminates to surrogates (§6.1).  Returns the
    edge count written.
    """
    lines = ["# repro AS graph — P2C|provider|customer / P2P|a|b / S2S|a|b"]
    for asn in graph.ases():
        lines.append(f"AS|{asn}")
    seen = set()
    count = 0
    for a in graph.ases():
        for b in graph.customers(a):
            lines.append(f"P2C|{a}|{b}")
            count += 1
        for b in graph.peers(a):
            key = (min(a, b), max(a, b))
            if key not in seen:
                seen.add(key)
                lines.append(f"P2P|{key[0]}|{key[1]}")
                count += 1
        for b in graph.siblings(a):
            key = (min(a, b), max(a, b), "s")
            if key not in seen:
                seen.add(key)
                lines.append(f"S2S|{key[0]}|{key[1]}")
                count += 1
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return count


def read_asgraph_file(path: PathLike):
    """Parse an AS graph file written by :func:`write_asgraph_file`."""
    graph = ASGraph()
    with Path(path).open(encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split("|")
            try:
                if fields[0] == "AS" and len(fields) == 2:
                    graph.add_as(int(fields[1]))
                elif fields[0] == "P2C" and len(fields) == 3:
                    graph.add_provider_customer(int(fields[1]), int(fields[2]))
                elif fields[0] == "P2P" and len(fields) == 3:
                    graph.add_peer(int(fields[1]), int(fields[2]))
                elif fields[0] == "S2S" and len(fields) == 3:
                    graph.add_sibling(int(fields[1]), int(fields[2]))
                else:
                    raise BGPParseError(f"line {lineno}: malformed AS graph line {line!r}")
            except ValueError as exc:
                raise BGPParseError(f"line {lineno}: {exc}") from exc
    return graph
