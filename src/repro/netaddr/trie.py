"""Binary trie over IPv4 prefixes with longest-prefix match.

This is the data structure behind the paper's "IP prefix to origin AS
mapping table" (Section 3.1): BGP RIB entries are inserted keyed by prefix,
and end-host IPs are resolved to their longest matching prefix to form
prefix clusters.
"""

from __future__ import annotations

from typing import Generic, Iterator, List, Optional, Tuple, TypeVar

from repro.netaddr.ipv4 import IPv4Address, IPv4Prefix

V = TypeVar("V")


class _TrieNode(Generic[V]):
    __slots__ = ("children", "prefix", "value", "has_value")

    def __init__(self) -> None:
        self.children: List[Optional["_TrieNode[V]"]] = [None, None]
        self.prefix: Optional[IPv4Prefix] = None
        self.value: Optional[V] = None
        self.has_value = False


class PrefixTrie(Generic[V]):
    """Map from :class:`IPv4Prefix` to arbitrary values, with LPM lookup.

    Supports exact insert/get/delete plus :meth:`longest_match` for an
    address.
    """

    def __init__(self) -> None:
        self._root: _TrieNode[V] = _TrieNode()
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def __contains__(self, prefix: IPv4Prefix) -> bool:
        node = self._walk_exact(prefix)
        return node is not None and node.has_value

    def insert(self, prefix: IPv4Prefix, value: V) -> None:
        """Insert or overwrite the value stored at ``prefix``."""
        node = self._root
        for depth in range(prefix.length):
            bit = (prefix.network >> (31 - depth)) & 1
            child = node.children[bit]
            if child is None:
                child = _TrieNode()
                node.children[bit] = child
            node = child
        if not node.has_value:
            self._size += 1
        node.prefix = prefix
        node.value = value
        node.has_value = True

    def get(self, prefix: IPv4Prefix, default=None):
        """Return the value stored at exactly ``prefix``, else ``default``."""
        node = self._walk_exact(prefix)
        if node is not None and node.has_value:
            return node.value
        return default

    def remove(self, prefix: IPv4Prefix) -> bool:
        """Delete the entry at ``prefix``; returns True if one existed."""
        node = self._walk_exact(prefix)
        if node is None or not node.has_value:
            return False
        node.has_value = False
        node.value = None
        node.prefix = None
        self._size -= 1
        return True

    def longest_match(self, address: IPv4Address) -> Optional[Tuple[IPv4Prefix, V]]:
        """Return ``(prefix, value)`` for the longest prefix covering address."""
        best: Optional[Tuple[IPv4Prefix, V]] = None
        node = self._root
        if node.has_value:
            best = (node.prefix, node.value)  # type: ignore[assignment]
        for depth in range(32):
            bit = address.bit(depth)
            child = node.children[bit]
            if child is None:
                break
            node = child
            if node.has_value:
                best = (node.prefix, node.value)  # type: ignore[assignment]
        return best

    def items(self) -> Iterator[Tuple[IPv4Prefix, V]]:
        """Iterate over ``(prefix, value)`` pairs in trie (DFS) order."""
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.has_value:
                yield node.prefix, node.value  # type: ignore[misc]
            for child in node.children:
                if child is not None:
                    stack.append(child)

    def _walk_exact(self, prefix: IPv4Prefix) -> Optional[_TrieNode[V]]:
        node = self._root
        for depth in range(prefix.length):
            bit = (prefix.network >> (31 - depth)) & 1
            child = node.children[bit]
            if child is None:
                return None
            node = child
        return node
