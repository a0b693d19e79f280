"""IPv4 addressing substrate: addresses, prefixes, and a longest-prefix trie.

The ASAP paper's entire measurement pipeline rests on grouping end-host IPs
by their longest-matched BGP prefix.  This package provides the minimal,
dependency-free IPv4 machinery for that: value types for addresses and
prefixes plus a binary trie supporting longest-prefix match.
"""

from repro.netaddr.ipv4 import IPv4Address, IPv4Prefix, parse_prefix
from repro.netaddr.trie import PrefixTrie

__all__ = [
    "IPv4Address",
    "IPv4Prefix",
    "PrefixTrie",
    "parse_prefix",
]
