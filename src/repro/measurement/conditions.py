"""Injected network conditions: congestion, failures, and loss rates.

The paper's explanation for why overlay beats direct routing (Fig. 4)
names two circumstances — congestion/failure on the direct path, and
multi-homed shortcuts.  The topology provides the shortcuts; this module
injects the weather:

- **congested interconnects** — a fraction of transit-transit links
  (tier-1/tier-2 interconnects) carries a large queueing penalty and a
  raised loss rate.  Policy routing is oblivious to latency, so direct
  paths happily cross congested interconnects while overlay relays whose
  policy paths exit through different uplinks route around them — this
  is what makes latent sessions relay-rescuable, as in the paper's data;
- **congested ASes** — an optional whole-AS penalty (the literal reading
  of the paper's Fig. 4), kept as an ablation knob and off by default
  because a whole congested AS traps every single-homed customer behind
  it with no overlay escape;
- **failed ASes** — removed from the routing graph entirely;
- **per-AS loss rates** — baseline small, raised near congestion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Set, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.topology.generator import Topology
from repro.util.rng import derive_rng


@dataclass(frozen=True)
class ConditionsConfig:
    """Probabilities and magnitudes of injected network trouble."""

    # Fraction of transit-transit links that are congested.
    congested_link_fraction: float = 0.03
    # One-way queueing penalty per traversal of a congested link (ms);
    # drawn lognormal with this median and sigma.
    link_penalty_median_ms: float = 110.0
    link_penalty_sigma: float = 0.6
    # Whole-AS congestion (ablation knob; see module docstring).
    congested_as_fraction: float = 0.0
    as_penalty_median_ms: float = 90.0
    as_penalty_sigma: float = 0.6
    failed_fraction: float = 0.004
    baseline_loss_rate: float = 0.002
    congested_loss_rate: float = 0.02
    # Only transit ASes can be congested/failed when True (stub trouble
    # affects just that stub's own sessions and muddies comparisons).
    transit_only: bool = True
    # Keep tier-1 cores clear of whole-AS trouble when True.
    spare_tier1: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("congested_link_fraction", "congested_as_fraction", "failed_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1], got {value}")
        for name in ("baseline_loss_rate", "congested_loss_rate"):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1), got {value}")
        if self.link_penalty_median_ms < 0 or self.as_penalty_median_ms < 0:
            raise ConfigurationError("congestion penalties must be non-negative")


def _link_key(a: int, b: int) -> Tuple[int, int]:
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class NetworkConditions:
    """The realized weather of one scenario (immutable once generated)."""

    link_penalty: Dict[Tuple[int, int], float] = field(default_factory=dict)
    congestion_penalty_ms: Dict[int, float] = field(default_factory=dict)
    failed_ases: FrozenSet[int] = frozenset()
    loss_rate: Dict[int, float] = field(default_factory=dict)

    def penalty_ms(self, asn: int) -> float:
        """One-way whole-AS congestion penalty (0 if clear)."""
        return self.congestion_penalty_ms.get(asn, 0.0)

    def link_penalty_ms(self, a: int, b: int) -> float:
        """One-way congestion penalty of the inter-AS link a-b (0 if clear)."""
        return self.link_penalty.get(_link_key(a, b), 0.0)

    def loss_of(self, asn: int) -> float:
        """Per-traversal packet loss probability of an AS."""
        return self.loss_rate.get(asn, 0.0)


def _transit_links(topology: Topology) -> List[Tuple[int, int]]:
    """All annotated links whose two endpoints are both transit ASes."""
    graph = topology.graph
    transit: Set[int] = set(topology.transit_ases())
    links: Set[Tuple[int, int]] = set()
    for a in transit:
        for b in graph.neighbors(a):
            if b in transit:
                links.add(_link_key(a, b))
    return sorted(links)


def generate_conditions(
    topology: Topology,
    config: ConditionsConfig = ConditionsConfig(),
) -> NetworkConditions:
    """Draw a deterministic set of conditions for a topology."""
    rng = derive_rng(config.seed, "conditions")

    # Congested transit interconnects.
    links = _transit_links(topology)
    n_links = int(round(config.congested_link_fraction * len(links)))
    link_penalty: Dict[Tuple[int, int], float] = {}
    if n_links and links:
        chosen = rng.choice(len(links), size=min(n_links, len(links)), replace=False)
        mu = np.log(max(config.link_penalty_median_ms, 1e-9))
        for idx in chosen:
            link_penalty[links[int(idx)]] = float(
                rng.lognormal(mean=mu, sigma=config.link_penalty_sigma)
            )

    # Whole-AS congestion (ablation) + failures.
    candidates = topology.transit_ases() if config.transit_only else topology.graph.ases()
    if config.spare_tier1:
        candidates = [a for a in candidates if topology.tier_of.get(a) != 1]
    candidates = sorted(candidates)
    n_congested = int(round(config.congested_as_fraction * len(candidates)))
    n_failed = int(round(config.failed_fraction * len(candidates)))
    troubled = (
        [
            int(a)
            for a in rng.choice(
                candidates,
                size=min(n_congested + n_failed, len(candidates)),
                replace=False,
            )
        ]
        if candidates
        else []
    )
    failed = frozenset(troubled[:n_failed])
    congested_as = troubled[n_failed:]
    penalties: Dict[int, float] = {}
    mu = np.log(max(config.as_penalty_median_ms, 1e-9))
    for asn in congested_as:
        penalties[asn] = float(rng.lognormal(mean=mu, sigma=config.as_penalty_sigma))

    # Loss rates: baseline everywhere, raised beside congestion.
    hot_ases: Set[int] = set(penalties)
    for a, b in link_penalty:
        hot_ases.add(a)
        hot_ases.add(b)
    loss: Dict[int, float] = {}
    for asn in topology.graph.ases():
        base = float(rng.uniform(0.2, 1.8)) * config.baseline_loss_rate
        if asn in hot_ases:
            base += float(rng.uniform(0.5, 1.5)) * config.congested_loss_rate
        loss[asn] = min(base, 0.5)

    return NetworkConditions(
        link_penalty=link_penalty,
        congestion_penalty_ms=penalties,
        failed_ases=failed,
        loss_rate=loss,
    )
