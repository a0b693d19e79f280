"""Unit tests for BGP update parsing and RIB replay."""

import pytest

from repro.errors import BGPParseError
from repro.netaddr import IPv4Address, IPv4Prefix
from repro.bgp import BGPUpdate, RIBEntry, RoutingTable, apply_updates, parse_update_stream
from repro.bgp.updates import parse_update_line


PEER = IPv4Address.from_string("10.0.0.1")
PFX = IPv4Prefix.from_string("192.0.2.0/24")


def announce(ts=10, path=(1, 2)):
    return BGPUpdate(kind="ANNOUNCE", timestamp=ts, peer=PEER, prefix=PFX, as_path=path)


def withdraw(ts=20):
    return BGPUpdate(kind="WITHDRAW", timestamp=ts, peer=PEER, prefix=PFX)


class TestUpdateModel:
    def test_announce_requires_path(self):
        with pytest.raises(BGPParseError):
            BGPUpdate(kind="ANNOUNCE", timestamp=1, peer=PEER, prefix=PFX)

    def test_withdraw_must_not_carry_path(self):
        with pytest.raises(BGPParseError):
            BGPUpdate(kind="WITHDRAW", timestamp=1, peer=PEER, prefix=PFX, as_path=(1,))

    def test_unknown_kind_rejected(self):
        with pytest.raises(BGPParseError):
            BGPUpdate(kind="NOTIFY", timestamp=1, peer=PEER, prefix=PFX)

    def test_announce_to_entry(self):
        e = announce().to_entry()
        assert isinstance(e, RIBEntry)
        assert e.as_path == (1, 2)

    def test_withdraw_to_entry_fails(self):
        with pytest.raises(BGPParseError):
            withdraw().to_entry()

    def test_line_round_trips(self):
        for update in (announce(), withdraw()):
            assert parse_update_line(update.to_line()) == update

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "WITHDRAW|1|10.0.0.1",
            "ANNOUNCE|1|10.0.0.1|192.0.2.0/24|1 2",
            "ANNOUNCE|x|10.0.0.1|192.0.2.0/24|1 2|IGP",
            "NOTIFY|1|10.0.0.1|192.0.2.0/24",
        ],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(BGPParseError):
            parse_update_line(bad)

    def test_stream_parser_reports_line(self):
        text = announce().to_line() + "\nGARBAGE|line\n"
        with pytest.raises(BGPParseError, match="line 2"):
            list(parse_update_stream(text.splitlines()))


class TestApplyUpdates:
    def test_announce_installs(self):
        table = RoutingTable()
        assert apply_updates(table, [announce()]) == 1
        assert len(table) == 1

    def test_withdraw_after_announce_empties(self):
        table = RoutingTable()
        apply_updates(table, [announce(ts=1), withdraw(ts=2)])
        assert len(table) == 0

    def test_updates_applied_in_timestamp_order(self):
        # A withdraw that logically precedes the announce must not win
        # even when supplied out of order.
        table = RoutingTable()
        apply_updates(table, [announce(ts=5), withdraw(ts=2)])
        assert len(table) == 1

    def test_until_cutoff_skips_later_updates(self):
        table = RoutingTable()
        applied = apply_updates(table, [announce(ts=1), withdraw(ts=100)], until=50)
        assert applied == 1
        assert len(table) == 1

    def test_reannounce_replaces_path(self):
        table = RoutingTable()
        apply_updates(table, [announce(ts=1, path=(1, 2)), announce(ts=2, path=(3, 4))])
        assert [e.as_path for e in table.entries()] == [(3, 4)]
