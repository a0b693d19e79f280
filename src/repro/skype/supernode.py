"""Supernode overlay and the Skype-like relay probing policy.

What we know about 2005-era Skype (from [Baset & Schulzrinne] and the
paper's own observations) and encode here:

- a subset of well-provisioned peers act as *supernodes*; relay
  candidates come from the overlay with no AS-topology awareness;
- a session probes candidate relays in batches, keeps the best path
  found so far, and *switches* to a newly probed path whenever it beats
  the current one — producing relay bounce while probing continues;
- probing keeps going (new batches) until the current path is good
  enough or a probe budget runs out, after which a low-rate background
  probe trickle continues (the paper's Fig. 7(c): 3-6 nodes probed after
  stabilization).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.topology.population import Host, PeerPopulation
from repro.voip.quality import RTT_THRESHOLD_MS


@dataclass(frozen=True)
class SkypeConfig:
    """Knobs of the Skype-like policy (times in milliseconds)."""

    # Fraction of the population (by capability rank) acting as supernodes.
    supernode_fraction: float = 0.15
    # Candidates fetched from the overlay per probe batch.
    batch_size: int = 8
    # Pause between probe batches while still searching.
    batch_interval_ms: float = 10_000.0
    # A new path must beat the current one by this margin to switch.
    switch_margin: float = 0.05
    # Stop batch-probing once the current path RTT is below this.
    target_rtt_ms: float = RTT_THRESHOLD_MS
    # Hard cap on probed candidates per direction (the paper's worst
    # session probed 59 nodes across both directions).
    max_probes: int = 32
    # Background probing after search stops: interval and budget.
    background_interval_ms: float = 60_000.0
    max_background_probes: int = 4
    # Voice packet synthesis for traces.
    voice_packet_interval_ms: float = 60.0
    voice_payload_bytes: int = 160
    probe_payload_bytes: int = 48
    # Bias of candidate discovery toward popular supernodes: weight of a
    # supernode ∝ capability^popularity_bias.  Higher bias concentrates
    # probes on few well-known nodes (→ same-AS duplicates, Limit 2).
    popularity_bias: float = 3.0
    # Multiplicative (lognormal sigma) error of a single probe's RTT
    # measurement.  Switching decisions ride on one noisy probe each, so
    # a suboptimal path can be kept over a better one the client
    # believes is slower — the mechanism behind the paper's Limit 1
    # ("probed relay paths with lower RTTs but did not use them").
    probe_noise_sigma: float = 0.15
    # Mean exponential lifetime of a relay node once it starts carrying
    # voice (None = relays never die).  Supernodes are end-user machines
    # that quit mid-call; a dying carrier forces a fallback to the
    # direct path and a fresh probing round — "the network condition
    # still changes dynamically after the stabilization time" (§5).
    relay_mean_lifetime_ms: Optional[float] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.supernode_fraction <= 1.0:
            raise ConfigurationError("supernode_fraction must be in (0, 1]")
        if self.batch_size < 1 or self.max_probes < 1:
            raise ConfigurationError("batch_size and max_probes must be >= 1")
        if self.switch_margin < 0:
            raise ConfigurationError("switch_margin must be >= 0")
        if self.probe_noise_sigma < 0:
            raise ConfigurationError("probe_noise_sigma must be >= 0")
        if self.relay_mean_lifetime_ms is not None and self.relay_mean_lifetime_ms <= 0:
            raise ConfigurationError("relay_mean_lifetime_ms must be positive or None")
        if min(
            self.batch_interval_ms,
            self.background_interval_ms,
            self.voice_packet_interval_ms,
        ) <= 0:
            raise ConfigurationError("intervals must be positive")


class SupernodeOverlay:
    """The set of supernodes and AS-unaware candidate discovery."""

    def __init__(
        self, population: PeerPopulation, config: Optional[SkypeConfig] = None
    ) -> None:
        self._config = config = config if config is not None else SkypeConfig()
        ranked = sorted(
            population.hosts, key=lambda h: (-h.info.capability(), h.ip)
        )
        count = max(1, int(round(config.supernode_fraction * len(ranked))))
        self._supernodes: List[Host] = ranked[:count]
        capabilities = np.array([h.info.capability() for h in self._supernodes])
        weights = np.power(np.maximum(capabilities, 1e-9), config.popularity_bias)
        self._weights = weights / weights.sum()

    def __len__(self) -> int:
        return len(self._supernodes)

    def discover(
        self,
        rng: np.random.Generator,
        count: int,
        exclude: Optional[set] = None,
    ) -> List[Host]:
        """Fetch up to ``count`` relay candidates from the overlay.

        Draws are popularity-weighted and AS-unaware; already-probed
        nodes (``exclude``, a set of IPs) are filtered out, mirroring a
        client asking the overlay for "more" candidates.
        """
        exclude = exclude or set()
        picked: List[Host] = []
        seen = set(exclude)
        # Draw with rejection; bounded attempts keep this deterministic
        # and cheap even when most of the overlay is excluded.
        for _ in range(count * 20):
            if len(picked) >= count:
                break
            idx = int(rng.choice(len(self._supernodes), p=self._weights))
            host = self._supernodes[idx]
            if host.ip in seen:
                continue
            seen.add(host.ip)
            picked.append(host)
        return picked
