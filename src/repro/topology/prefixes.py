"""Prefix allocation: carve address space into per-AS announced prefixes.

Each AS gets one or more disjoint prefixes (like real allocations, an AS
"can have multiple IP prefixes" — paper Section 6.1).  The allocator hands
out consecutive blocks from a configurable super-block so allocations are
disjoint by construction, which tests verify as an invariant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import TopologyError
from repro.netaddr import IPv4Prefix
from repro.topology.generator import Topology
from repro.util.rng import derive_rng


@dataclass
class PrefixAllocation:
    """The result of allocating prefixes to every AS of a topology."""

    prefixes_of: Dict[int, List[IPv4Prefix]] = field(default_factory=dict)

    def __len__(self) -> int:
        return sum(len(p) for p in self.prefixes_of.values())


class PrefixAllocator:
    """Sequentially carves disjoint prefixes out of one super-block."""

    def __init__(self, super_block: IPv4Prefix = IPv4Prefix.from_string("10.0.0.0/8")) -> None:
        self._super = super_block
        self._cursor = super_block.network
        self._limit = super_block.network + super_block.size()

    def allocate(self, length: int) -> IPv4Prefix:
        """Allocate the next free prefix of the given length."""
        if length < self._super.length or length > 32:
            raise TopologyError(f"cannot allocate /{length} from {self._super}")
        size = 1 << (32 - length)
        # Align the cursor up to the block size.
        aligned = (self._cursor + size - 1) & ~(size - 1)
        if aligned + size > self._limit:
            raise TopologyError(f"address space of {self._super} exhausted")
        self._cursor = aligned + size
        return IPv4Prefix(aligned, length)


#: A stub AS announces between these many prefixes, each of a length
#: drawn from :data:`STUB_PREFIX_LENGTHS`.
STUB_PREFIXES_MIN, STUB_PREFIXES_MAX = 1, 3
STUB_PREFIX_LENGTHS = (20, 21, 22, 23, 24)
#: A transit AS's one block: flat allocation, and provider-aggregatable.
TRANSIT_PREFIX_LENGTH, PROVIDER_BLOCK_LENGTH = 19, 15


def allocate_prefixes(topology: Topology, seed: int = 0) -> PrefixAllocation:
    """Allocate prefixes for every AS: stubs get 1-3 small blocks, transit
    ASes get one larger block (their infrastructure space)."""
    rng = derive_rng(seed, "prefixes")
    allocator = PrefixAllocator()
    allocation = PrefixAllocation()
    for asn in topology.transit_ases():
        allocation.prefixes_of[asn] = [allocator.allocate(TRANSIT_PREFIX_LENGTH)]
    for asn in topology.stub_ases():
        count = int(rng.integers(STUB_PREFIXES_MIN, STUB_PREFIXES_MAX + 1))
        blocks = [
            allocator.allocate(int(rng.choice(STUB_PREFIX_LENGTHS)))
            for _ in range(count)
        ]
        allocation.prefixes_of[asn] = blocks
    # Sibling ASes created by the generator are in tier_of but may be in
    # neither list if they are stubs relying on their twin; give each a /24.
    for asn in topology.graph.ases():
        if asn not in allocation.prefixes_of:
            allocation.prefixes_of[asn] = [allocator.allocate(24)]
    return allocation


def allocate_prefixes_hierarchical(topology: Topology, seed: int = 0) -> PrefixAllocation:
    """Provider-aggregatable allocation: stubs get PA space carved from
    their primary provider's block.

    Real address space is mostly provider-assigned: a transit AS
    announces a large covering aggregate while its customers announce
    more-specifics inside it.  Under this allocation the BGP table
    contains overlapping prefixes and longest-prefix match genuinely
    selects between an aggregate and its more-specifics — the situation
    the paper's prefix clustering (and our trie) exists for.

    Tier-1/tier-2 ASes receive one large block each (``/15``)
    and announce it whole; each tier-3 stub carves its prefixes from
    its lowest-numbered provider's block (falling back to independent
    ("PI") space when the provider block is exhausted).
    """
    rng = derive_rng(seed, "prefixes-hierarchical")
    # Large blocks need more room than 10/8: use a /4 super-block.
    allocator = PrefixAllocator(IPv4Prefix.from_string("16.0.0.0/4"))
    allocation = PrefixAllocation()

    # Providers get big blocks, announced as-is, with a private cursor
    # for customer carving.
    block_of: Dict[int, IPv4Prefix] = {}
    cursor_of: Dict[int, int] = {}
    for asn in topology.transit_ases():
        block = allocator.allocate(PROVIDER_BLOCK_LENGTH)
        allocation.prefixes_of[asn] = [block]
        block_of[asn] = block
        # Skip the head of the block: the provider's own infrastructure.
        cursor_of[asn] = block.network + 256

    def carve(provider: int, length: int) -> Optional[IPv4Prefix]:
        block = block_of.get(provider)
        if block is None:
            return None
        size = 1 << (32 - length)
        aligned = (cursor_of[provider] + size - 1) & ~(size - 1)
        if aligned + size > block.network + block.size():
            return None
        cursor_of[provider] = aligned + size
        return IPv4Prefix(aligned, length)

    for asn in topology.stub_ases():
        providers = sorted(topology.graph.providers(asn))
        primary = providers[0] if providers else None
        count = int(rng.integers(STUB_PREFIXES_MIN, STUB_PREFIXES_MAX + 1))
        blocks: List[IPv4Prefix] = []
        for _ in range(count):
            length = int(rng.choice(STUB_PREFIX_LENGTHS))
            prefix = carve(primary, length) if primary is not None else None
            if prefix is None:
                prefix = allocator.allocate(length)  # PI fallback
            blocks.append(prefix)
        allocation.prefixes_of[asn] = blocks

    for asn in topology.graph.ases():
        if asn not in allocation.prefixes_of:
            allocation.prefixes_of[asn] = [allocator.allocate(24)]
    return allocation
