"""Peer population synthesis — the stand-in for the Gnutella IP crawl.

The paper crawled 269,413 Gnutella peer IPs; we synthesize an online peer
population directly inside the generated prefixes.  Two properties of the
real crawl are preserved because downstream results depend on them:

- heavy-tailed cluster occupancy: ~90% of prefix clusters hold no more
  than 100 online hosts, with a few clusters near 1,000 (Section 6.3);
- heterogeneous host capability (bandwidth, uptime, CPU) — ASAP elects
  the most capable host of each cluster as its surrogate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.errors import ConfigurationError, TopologyError
from repro.netaddr import IPv4Address, IPv4Prefix
from repro.topology.generator import Topology
from repro.topology.prefixes import PrefixAllocation
from repro.util.rng import derive_rng


@dataclass(frozen=True)
class NodalInfo:
    """Capability record an end host publishes to its surrogate (§6.1)."""

    bandwidth_kbps: float
    uptime_hours: float
    cpu_score: float

    def capability(self) -> float:
        """Scalar surrogate-election score; higher is more capable.

        Computed on first use and kept in the instance ``__dict__``,
        outside the fields: equality, hashing and pickling see only the
        three published numbers."""
        score = self.__dict__.get("_capability")
        if score is None:
            score = (
                0.5 * np.log1p(self.bandwidth_kbps)
                + 0.3 * np.log1p(self.uptime_hours)
                + 0.2 * np.log1p(self.cpu_score)
            )
            object.__setattr__(self, "_capability", score)
        return score

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_capability", None)
        return state


@dataclass(frozen=True)
class Host:
    """One online VoIP end host."""

    ip: IPv4Address
    asn: int
    prefix: IPv4Prefix
    access_delay_ms: float  # one-way last-mile delay to the AS border
    info: NodalInfo


@dataclass(frozen=True)
class PopulationConfig:
    """Knobs for the synthetic peer population."""

    host_count: int = 3000
    # Zipf-ish skew of hosts across clusters; higher → heavier tail.
    occupancy_skew: float = 1.2
    # Fraction of stub prefixes that contain any online peers at all.
    populated_prefix_fraction: float = 0.7
    access_delay_range_ms: tuple = (1.0, 15.0)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.host_count < 2:
            raise ConfigurationError("host_count must be >= 2")
        if not 0.0 < self.populated_prefix_fraction <= 1.0:
            raise ConfigurationError("populated_prefix_fraction must be in (0, 1]")
        if self.occupancy_skew <= 0:
            raise ConfigurationError("occupancy_skew must be positive")
        lo, hi = self.access_delay_range_ms
        if lo < 0 or hi < lo:
            raise ConfigurationError("invalid access_delay_range_ms")


@dataclass
class PeerPopulation:
    """The full set of online hosts, indexable by IP."""

    hosts: List[Host] = field(default_factory=list)
    _by_ip: Dict[IPv4Address, Host] = field(default_factory=dict)
    #: :meth:`ips_by_text`, built on first use; ``add`` drops it.
    _ips_by_text: Optional[np.ndarray] = field(
        default=None, init=False, repr=False, compare=False
    )

    def add(self, host: Host) -> None:
        if host.ip in self._by_ip:
            raise TopologyError(f"duplicate host IP {host.ip}")
        self.hosts.append(host)
        self._by_ip[host.ip] = host
        self._ips_by_text = None

    def ips_by_text(self) -> np.ndarray:
        """Every host's IP ordered by its dotted text, as a read-only
        object array — sorted once per population."""
        if self._ips_by_text is None:
            order = np.array(sorted((host.ip for host in self.hosts), key=str), dtype=object)
            order.flags.writeable = False
            self._ips_by_text = order
        return self._ips_by_text

    def by_ip(self, ip: IPv4Address) -> Host:
        try:
            return self._by_ip[ip]
        except KeyError:
            raise TopologyError(f"unknown host IP {ip}") from None

    def __contains__(self, ip: IPv4Address) -> bool:
        return ip in self._by_ip

    def __len__(self) -> int:
        return len(self.hosts)


def generate_population(
    topology: Topology,
    allocation: PrefixAllocation,
    config: PopulationConfig = PopulationConfig(),
) -> PeerPopulation:
    """Sample a peer population into the stub prefixes of a topology."""
    rng = derive_rng(config.seed, "population")
    stub_prefixes: List[tuple] = []
    for asn in topology.stub_ases():
        for prefix in allocation.prefixes_of.get(asn, []):
            stub_prefixes.append((asn, prefix))
    if not stub_prefixes:
        raise TopologyError("topology has no stub prefixes to populate")

    populated_count = max(1, int(round(config.populated_prefix_fraction * len(stub_prefixes))))
    chosen_idx = rng.choice(len(stub_prefixes), size=populated_count, replace=False)
    chosen = [stub_prefixes[int(i)] for i in chosen_idx]

    # Heavy-tailed occupancy: weights ~ 1/rank^skew over a random ordering.
    ranks = np.arange(1, len(chosen) + 1, dtype=float)
    weights = 1.0 / np.power(ranks, config.occupancy_skew)
    weights /= weights.sum()
    counts = rng.multinomial(config.host_count, weights)

    population = PeerPopulation()
    lo_delay, hi_delay = config.access_delay_range_ms
    for (asn, prefix), count in zip(chosen, counts):
        # Cap occupancy by usable prefix size (skip network address).
        usable = prefix.size() - 1
        count = int(min(count, usable))
        if count <= 0:
            continue
        offsets = rng.choice(usable, size=count, replace=False) + 1
        for offset in offsets:
            ip = prefix.nth_address(int(offset))
            info = NodalInfo(
                bandwidth_kbps=float(rng.lognormal(mean=6.5, sigma=1.0)),
                uptime_hours=float(rng.exponential(scale=24.0)),
                cpu_score=float(rng.uniform(0.5, 10.0)),
            )
            population.add(
                Host(
                    ip=ip,
                    asn=asn,
                    prefix=prefix,
                    access_delay_ms=float(rng.uniform(lo_delay, hi_delay)),
                    info=info,
                )
            )
    if len(population) < 2:
        raise TopologyError("population generation produced fewer than 2 hosts")
    return population
