"""Unit tests for the prefix → origin-AS mapping table."""

import pytest

from repro.errors import BGPParseError
from repro.netaddr import IPv4Address, IPv4Prefix
from repro.bgp import PrefixOriginTable, RIBEntry, RoutingTable


def entry(prefix, origin_as, peer="10.0.0.1"):
    return RIBEntry(
        timestamp=1,
        peer=IPv4Address.from_string(peer),
        prefix=IPv4Prefix.from_string(prefix),
        as_path=(100, origin_as),
    )


class TestPrefixOriginTable:
    def test_lookup_longest_match(self):
        table = PrefixOriginTable()
        table.add(IPv4Prefix.from_string("10.0.0.0/8"), 1)
        table.add(IPv4Prefix.from_string("10.1.0.0/16"), 2)
        assert table.origin_of(IPv4Address.from_string("10.1.2.3")) == 2
        assert table.origin_of(IPv4Address.from_string("10.2.2.3")) == 1
        assert table.origin_of(IPv4Address.from_string("11.0.0.1")) is None

    def test_rejects_bad_origin(self):
        table = PrefixOriginTable()
        with pytest.raises(BGPParseError):
            table.add(IPv4Prefix.from_string("10.0.0.0/8"), 0)

    def test_from_entries(self):
        table = PrefixOriginTable.from_entries(
            [entry("10.0.0.0/8", 5), entry("192.168.0.0/16", 6)]
        )
        assert len(table) == 2
        assert table.origin_of(IPv4Address.from_string("10.9.9.9")) == 5

    def test_moas_conflict_majority_wins(self):
        entries = [
            entry("10.0.0.0/8", 5, peer="10.0.0.1"),
            entry("10.0.0.0/8", 5, peer="10.0.0.2"),
            entry("10.0.0.0/8", 7, peer="10.0.0.3"),
        ]
        table = PrefixOriginTable.from_routing_table(RoutingTable.from_entries(entries))
        assert table.origin_of(IPv4Address.from_string("10.0.0.9")) == 5

    def test_moas_tie_breaks_to_lowest_asn(self):
        entries = [
            entry("10.0.0.0/8", 9, peer="10.0.0.1"),
            entry("10.0.0.0/8", 4, peer="10.0.0.2"),
        ]
        table = PrefixOriginTable.from_routing_table(RoutingTable.from_entries(entries))
        assert table.origin_of(IPv4Address.from_string("10.0.0.9")) == 4

    def test_prefixes_of_and_ases(self):
        table = PrefixOriginTable()
        p1 = IPv4Prefix.from_string("10.0.0.0/16")
        p2 = IPv4Prefix.from_string("10.1.0.0/16")
        table.add(p1, 5)
        table.add(p2, 5)
        assert table.prefixes_of(5) == sorted([p1, p2])
        assert table.ases() == [5]
        assert table.prefixes_of(99) == []

    def test_add_overwrite_moves_prefix_between_ases(self):
        table = PrefixOriginTable()
        p = IPv4Prefix.from_string("10.0.0.0/16")
        table.add(p, 5)
        table.add(p, 6)
        assert table.prefixes_of(5) == []
        assert table.prefixes_of(6) == [p]
        assert len(table) == 1

    def test_contains(self):
        table = PrefixOriginTable()
        p = IPv4Prefix.from_string("10.0.0.0/16")
        table.add(p, 5)
        assert p in table
        assert IPv4Prefix.from_string("10.0.0.0/17") not in table
