"""Unit tests for IPv4 address and prefix value types."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AddressError
from repro.netaddr import IPv4Address, IPv4Prefix, parse_prefix
from tests.oracles import prefix_contains, prefix_contains_prefix


class TestIPv4Address:
    def test_parse_dotted_quad(self):
        assert IPv4Address.from_string("192.0.2.1").value == 0xC0000201

    def test_round_trip_string(self):
        for text in ("0.0.0.0", "255.255.255.255", "10.1.2.3"):
            assert str(IPv4Address.from_string(text)) == text

    @staticmethod
    def _joined_octets(address):
        return ".".join(str((address.value >> shift) & 0xFF) for shift in (24, 16, 8, 0))

    @pytest.mark.parametrize("value", [0, 2**32 - 1, 0x0A000001, 0x00FF00FF, 0xFF00FF00])
    def test_str_equals_joined_octets_at_edges(self, value):
        address = IPv4Address(value)
        assert str(address).encode() == self._joined_octets(address).encode()

    @settings(max_examples=500)
    @given(st.integers(0, 2**32 - 1))
    def test_str_equals_joined_octets(self, value):
        address = IPv4Address(value)
        assert str(address) == self._joined_octets(address)
        assert IPv4Address.from_string(str(address)) == address

    def test_ordering_matches_integer_order(self):
        a = IPv4Address.from_string("10.0.0.1")
        b = IPv4Address.from_string("10.0.0.2")
        assert a < b

    def test_bit_indexing_msb_first(self):
        addr = IPv4Address.from_string("128.0.0.1")
        assert addr.bit(0) == 1
        assert addr.bit(31) == 1
        assert addr.bit(1) == 0

    def test_bit_index_out_of_range(self):
        with pytest.raises(AddressError):
            IPv4Address(0).bit(32)

    @pytest.mark.parametrize(
        "bad",
        ["", "1.2.3", "1.2.3.4.5", "256.0.0.1", "01.2.3.4", "a.b.c.d", "1..2.3"],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(AddressError):
            IPv4Address.from_string(bad)

    def test_rejects_out_of_range_integer(self):
        with pytest.raises(AddressError):
            IPv4Address(2**32)
        with pytest.raises(AddressError):
            IPv4Address(-1)


class TestIPv4Prefix:
    def test_parse_cidr(self):
        p = IPv4Prefix.from_string("10.1.0.0/16")
        assert p.length == 16
        assert str(p) == "10.1.0.0/16"

    def test_canonicalizes_host_bits(self):
        p = IPv4Prefix(IPv4Address.from_string("10.0.0.255").value, 8)
        assert str(p) == "10.0.0.0/8"

    def test_equal_networks_compare_equal(self):
        a = IPv4Prefix.from_string("10.0.0.0/8")
        b = IPv4Prefix(IPv4Address.from_string("10.255.255.255").value, 8)
        assert a == b

    def test_contains_address(self):
        p = IPv4Prefix.from_string("192.168.0.0/24")
        assert prefix_contains(p, IPv4Address.from_string("192.168.0.17"))
        assert not prefix_contains(p, IPv4Address.from_string("192.168.1.17"))

    def test_contains_prefix(self):
        outer = IPv4Prefix.from_string("10.0.0.0/8")
        inner = IPv4Prefix.from_string("10.5.0.0/16")
        assert prefix_contains_prefix(outer, inner)
        assert not prefix_contains_prefix(inner, outer)
        assert prefix_contains_prefix(outer, outer)

    def test_size_and_bounds(self):
        p = IPv4Prefix.from_string("10.0.0.0/30")
        assert p.size() == 4
        assert str(p.nth_address(0)) == "10.0.0.0"
        assert str(p.nth_address(p.size() - 1)) == "10.0.0.3"

    def test_nth_address(self):
        p = IPv4Prefix.from_string("10.0.0.0/30")
        assert str(p.nth_address(2)) == "10.0.0.2"
        with pytest.raises(AddressError):
            p.nth_address(4)

    def test_hosts_iteration(self):
        p = IPv4Prefix.from_string("10.0.0.0/31")
        assert [str(a) for a in p.hosts()] == ["10.0.0.0", "10.0.0.1"]

    def test_zero_length_prefix_contains_everything(self):
        p = IPv4Prefix.from_string("0.0.0.0/0")
        assert prefix_contains(p, IPv4Address.from_string("255.1.2.3"))
        assert p.netmask_int() == 0

    @pytest.mark.parametrize("bad", ["10.0.0.0", "10.0.0.0/33", "10.0.0.0/x", "/8"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(AddressError):
            IPv4Prefix.from_string(bad)

    def test_parse_prefix_helper(self):
        assert parse_prefix("10.0.0.0/8") == IPv4Prefix.from_string("10.0.0.0/8")
