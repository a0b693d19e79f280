"""Unit + property tests for the longest-prefix-match trie."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netaddr import IPv4Address, IPv4Prefix, PrefixTrie
from tests.oracles import prefix_contains


def P(text):
    return IPv4Prefix.from_string(text)


def A(text):
    return IPv4Address.from_string(text)


class TestPrefixTrieBasics:
    def test_insert_get(self):
        trie = PrefixTrie()
        trie.insert(P("10.0.0.0/8"), "a")
        assert trie.longest_match(A("10.200.0.1")) == (P("10.0.0.0/8"), "a")
        assert len(trie) == 1

    def test_insert_overwrites(self):
        trie = PrefixTrie()
        trie.insert(P("10.0.0.0/8"), 1)
        trie.insert(P("10.0.0.0/8"), 2)
        assert trie.longest_match(A("10.0.0.1")) == (P("10.0.0.0/8"), 2)
        assert len(trie) == 1

    def test_contains(self):
        trie = PrefixTrie()
        trie.insert(P("10.0.0.0/8"), 1)
        assert P("10.0.0.0/8") in trie
        assert P("10.0.0.0/16") not in trie

    def test_longest_match_prefers_most_specific(self):
        trie = PrefixTrie()
        trie.insert(P("10.0.0.0/8"), "short")
        trie.insert(P("10.1.0.0/16"), "mid")
        trie.insert(P("10.1.2.0/24"), "long")
        prefix, value = trie.longest_match(A("10.1.2.3"))
        assert value == "long"
        assert prefix == P("10.1.2.0/24")
        prefix, value = trie.longest_match(A("10.1.9.9"))
        assert value == "mid"
        prefix, value = trie.longest_match(A("10.9.9.9"))
        assert value == "short"

    def test_longest_match_none_when_uncovered(self):
        trie = PrefixTrie()
        trie.insert(P("10.0.0.0/8"), 1)
        assert trie.longest_match(A("11.0.0.1")) is None

    def test_default_route(self):
        trie = PrefixTrie()
        trie.insert(P("0.0.0.0/0"), "default")
        _, value = trie.longest_match(A("203.0.113.7"))
        assert value == "default"

    def test_slash32_entry(self):
        trie = PrefixTrie()
        trie.insert(P("10.0.0.5/32"), "host")
        assert trie.longest_match(A("10.0.0.5"))[1] == "host"
        assert trie.longest_match(A("10.0.0.6")) is None


prefix_strategy = st.builds(
    lambda value, length: IPv4Prefix(value, length),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=0, max_value=32),
)


class TestPrefixTrieProperties:
    @given(
        st.dictionaries(prefix_strategy, st.integers(), max_size=30),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_longest_match_agrees_with_linear_scan(self, mapping, addr_int):
        trie = PrefixTrie()
        for prefix, value in mapping.items():
            trie.insert(prefix, value)
        address = IPv4Address(addr_int)
        covering = [p for p in mapping if prefix_contains(p, address)]
        expected = max(covering, key=lambda p: p.length) if covering else None
        got = trie.longest_match(address)
        if expected is None:
            assert got is None
        else:
            got_prefix, got_value = got
            assert got_prefix.length == expected.length
            assert prefix_contains(got_prefix, address)
