"""IPv4 address and prefix value types.

These are deliberately small immutable types rather than wrappers around
:mod:`ipaddress` so that the hot paths (trie walks, bulk population
generation) stay allocation-light and the semantics we rely on — integer
representation, containment, canonicalization — are explicit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.errors import AddressError

_MAX_IPV4 = 0xFFFFFFFF


def _check_int_address(value: int) -> None:
    if not 0 <= value <= _MAX_IPV4:
        raise AddressError(f"IPv4 address integer out of range: {value!r}")


@dataclass(frozen=True, order=True)
class IPv4Address:
    """An IPv4 address stored as an unsigned 32-bit integer."""

    value: int

    def __post_init__(self) -> None:
        _check_int_address(self.value)

    @classmethod
    def from_string(cls, text: str) -> "IPv4Address":
        """Parse dotted-quad notation, e.g. ``"192.0.2.1"``."""
        parts = text.strip().split(".")
        if len(parts) != 4:
            raise AddressError(f"expected dotted quad, got {text!r}")
        value = 0
        for part in parts:
            if not part.isdigit():
                raise AddressError(f"non-numeric octet in {text!r}")
            octet = int(part)
            if octet > 255 or (len(part) > 1 and part[0] == "0"):
                raise AddressError(f"invalid octet {part!r} in {text!r}")
            value = (value << 8) | octet
        return cls(value)

    def bit(self, index: int) -> int:
        """Return bit ``index`` counted from the most significant bit (0-31)."""
        if not 0 <= index <= 31:
            raise AddressError(f"bit index out of range: {index}")
        return (self.value >> (31 - index)) & 1

    def __str__(self) -> str:
        v = self.value
        return f"{v >> 24}.{(v >> 16) & 0xFF}.{(v >> 8) & 0xFF}.{v & 0xFF}"

    def __repr__(self) -> str:
        return f"IPv4Address({str(self)!r})"


@dataclass(frozen=True, order=True)
class IPv4Prefix:
    """A CIDR prefix (network address + mask length), canonicalized.

    The network integer is always masked to the prefix length, so two
    prefixes that denote the same network compare equal.
    """

    network: int
    length: int

    def __post_init__(self) -> None:
        _check_int_address(self.network)
        if not 0 <= self.length <= 32:
            raise AddressError(f"prefix length out of range: {self.length}")
        masked = self.network & self.netmask_int()
        if masked != self.network:
            # dataclass is frozen; fix up via object.__setattr__ so that
            # IPv4Prefix(0x0A0000FF, 8) canonicalizes to 10.0.0.0/8.
            object.__setattr__(self, "network", masked)

    @classmethod
    def from_string(cls, text: str) -> "IPv4Prefix":
        """Parse CIDR notation, e.g. ``"10.1.0.0/16"``."""
        text = text.strip()
        if "/" not in text:
            raise AddressError(f"expected CIDR notation, got {text!r}")
        addr_part, _, len_part = text.partition("/")
        if not len_part.isdigit():
            raise AddressError(f"non-numeric prefix length in {text!r}")
        length = int(len_part)
        if length > 32:
            raise AddressError(f"prefix length out of range in {text!r}")
        address = IPv4Address.from_string(addr_part)
        return cls(address.value, length)

    def netmask_int(self) -> int:
        """Return the netmask as an unsigned 32-bit integer."""
        if self.length == 0:
            return 0
        return (_MAX_IPV4 << (32 - self.length)) & _MAX_IPV4

    def size(self) -> int:
        """Number of addresses covered by the prefix."""
        return 1 << (32 - self.length)

    def nth_address(self, n: int) -> IPv4Address:
        """Return the n-th address inside the prefix (0-based)."""
        if not 0 <= n < self.size():
            raise AddressError(f"host index {n} out of range for {self}")
        return IPv4Address(self.network + n)

    def hosts(self) -> Iterator[IPv4Address]:
        """Iterate over every address in the prefix (network address first)."""
        for n in range(self.size()):
            yield IPv4Address(self.network + n)

    def __str__(self) -> str:
        return f"{IPv4Address(self.network)}/{self.length}"

    def __repr__(self) -> str:
        return f"IPv4Prefix({str(self)!r})"


def parse_prefix(text: str) -> IPv4Prefix:
    """Module-level convenience wrapper for :meth:`IPv4Prefix.from_string`."""
    return IPv4Prefix.from_string(text)
