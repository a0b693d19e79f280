"""Unit tests for RIB entries, the dump format, and the routing table."""

import pytest

from repro.errors import BGPParseError
from repro.netaddr import IPv4Address, IPv4Prefix
from repro.bgp import RIBEntry, RoutingTable, format_rib_dump, parse_rib_dump
from repro.bgp.rib import parse_rib_line


def entry(prefix="192.0.2.0/24", path=(7018, 3356, 64512), peer="10.0.0.1", ts=1, origin="IGP"):
    return RIBEntry(
        timestamp=ts,
        peer=IPv4Address.from_string(peer),
        prefix=IPv4Prefix.from_string(prefix),
        as_path=tuple(path),
        origin=origin,
    )


class TestRIBEntry:
    def test_origin_as_is_last_path_element(self):
        assert entry(path=(1, 2, 3)).origin_as == 3

    def test_empty_path_rejected(self):
        with pytest.raises(BGPParseError):
            entry(path=())

    def test_invalid_origin_attribute_rejected(self):
        with pytest.raises(BGPParseError):
            entry(origin="BOGUS")

    def test_non_positive_asn_rejected(self):
        with pytest.raises(BGPParseError):
            entry(path=(1, 0, 3))

    def test_without_prepending_collapses_runs(self):
        e = entry(path=(1, 2, 2, 2, 3, 3))
        assert e.without_prepending() == (1, 2, 3)

    def test_without_prepending_keeps_nonadjacent_repeats(self):
        e = entry(path=(1, 2, 1))
        assert e.without_prepending() == (1, 2, 1)


class TestDumpFormat:
    def test_line_round_trip(self):
        e = entry()
        assert parse_rib_line(e.to_line()) == e

    def test_dump_round_trip(self):
        entries = [entry(), entry(prefix="198.51.100.0/24", path=(65000, 65001))]
        parsed = list(parse_rib_dump(format_rib_dump(entries).splitlines()))
        assert parsed == entries

    def test_parser_skips_comments_and_blanks(self):
        text = "# comment\n\n" + entry().to_line() + "\n"
        assert len(list(parse_rib_dump(text.splitlines()))) == 1

    def test_parser_reports_line_numbers(self):
        text = entry().to_line() + "\nRIB|broken\n"
        with pytest.raises(BGPParseError, match="line 2"):
            list(parse_rib_dump(text.splitlines()))

    def test_repeated_strings_parse_once_and_compare_equal(self, monkeypatch):
        """A dump repeats its few peer / prefix / path strings on every
        line; each distinct one is validated once per dump."""
        from repro.bgp import rib

        expected = [entry()] * 5 + [entry(peer="10.0.0.2")] * 5
        lines = [e.to_line() for e in expected]
        calls = []

        def counted(parse):
            return lambda text: calls.append(text) or parse(text)

        monkeypatch.setattr(
            rib, "_FIELD_PARSERS", tuple(counted(parse) for parse in rib._FIELD_PARSERS)
        )
        assert list(parse_rib_dump(lines)) == expected
        assert sorted(calls) == ["10.0.0.1", "10.0.0.2", "192.0.2.0/24", "7018 3356 64512"]
        list(parse_rib_dump(lines[:1]))  # a new dump starts a new memo
        assert len(calls) == 7

    @pytest.mark.parametrize(
        "bad_peer",
        ["10 20", "300.0.0.1"],  # the dump's own AS-path text; an out-of-range octet
    )
    def test_malformed_repeats_raise_every_time_with_their_line(self, bad_peer):
        """A failed parse is never remembered as a success, and a peer
        that reads like a cached AS path does not hit the path's memo."""
        good = entry(path=(10, 20)).to_line()
        bad = good.replace("|10.0.0.1|", f"|{bad_peer}|")
        with pytest.raises(BGPParseError, match="line 3"):
            list(parse_rib_dump([good, good, bad]))
        from functools import lru_cache

        from repro.bgp import rib

        parsers = tuple(lru_cache(maxsize=None)(parse) for parse in rib._FIELD_PARSERS)
        assert parse_rib_line(good, parsers) == entry(path=(10, 20))
        for _ in range(2):
            with pytest.raises(BGPParseError, match="bad address"):
                parse_rib_line(bad, parsers)

    @pytest.mark.parametrize(
        "bad",
        [
            "RIB|x|10.0.0.1|192.0.2.0/24|1 2|IGP",      # bad timestamp
            "RIB|1|10.0.0.1|192.0.2.0|1 2|IGP",         # bad prefix
            "RIB|1|10.0.0.1|192.0.2.0/24|one two|IGP",  # bad path
            "RIB|1|10.0.0.1|192.0.2.0/24|1 2",          # missing field
            "FOO|1|10.0.0.1|192.0.2.0/24|1 2|IGP",      # wrong tag
            "RIB|1|10.0.0.1|192.0.2.0/24||IGP",         # empty path
        ],
    )
    def test_malformed_lines_rejected(self, bad):
        with pytest.raises(BGPParseError):
            parse_rib_line(bad)


class TestRoutingTable:
    def test_install_and_len(self):
        table = RoutingTable.from_entries([entry(), entry(peer="10.0.0.2")])
        assert len(table) == 2

    def test_install_replaces_same_peer_prefix(self):
        table = RoutingTable()
        table.install(entry(path=(1, 2)))
        table.install(entry(path=(3, 4)))
        assert len(table) == 1
        assert [e.as_path for e in table.entries()] == [(3, 4)]

    def test_withdraw(self):
        table = RoutingTable.from_entries([entry()])
        e = entry()
        assert table.withdraw(e.peer, e.prefix)
        assert not table.withdraw(e.peer, e.prefix)
        assert len(table) == 0

    def test_prefixes_distinct(self):
        table = RoutingTable.from_entries(
            [entry(), entry(peer="10.0.0.2"), entry(prefix="198.51.100.0/24")]
        )
        assert len(table.prefixes()) == 2
