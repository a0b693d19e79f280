"""Declarative fault schedules (what goes wrong, when, and how badly).

A :class:`FaultScheduleConfig` describes the *stochastic shape* of a
chaos experiment — crash rates, churn waves, outage windows, loss
bursts — plus the seed that makes it reproducible.  It never touches a
live system itself: :func:`repro.faults.schedule.compile_schedule`
expands it against a concrete scenario into a deterministic timeline of
:class:`~repro.faults.schedule.FaultEvent`\\ s, and
:class:`~repro.faults.injector.FaultInjector` applies that timeline to
a running :class:`~repro.core.runtime.ASAPRuntime`.

The same config + the same scenario always compile to byte-identical
schedules, so chaos results (fault logs, failover histograms) reproduce
exactly across invocations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from typing import Optional, Tuple

from repro.core.config import require_count
from repro.errors import ConfigurationError


@dataclass(frozen=True, kw_only=True)
class ChurnWave:
    """A mass-departure event: a fraction of online hosts leaves at once."""

    at_ms: float
    fraction: float

    def __post_init__(self) -> None:
        if self.at_ms < 0:
            raise ConfigurationError("churn wave at_ms must be >= 0")
        if not 0.0 < self.fraction <= 1.0:
            raise ConfigurationError("churn wave fraction must be in (0, 1]")


@dataclass(frozen=True, kw_only=True)
class BootstrapOutage:
    """One bootstrap server is unreachable during a time window."""

    index: int
    start_ms: float
    duration_ms: float

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ConfigurationError("bootstrap index must be >= 0")
        if self.start_ms < 0 or self.duration_ms <= 0:
            raise ConfigurationError("outage window must be positive")


@dataclass(frozen=True, kw_only=True)
class ASOutage:
    """A whole AS fails for a window (None = let the compiler pick one)."""

    asn: Optional[int] = None
    start_ms: float = 0.0
    duration_ms: float = 5_000.0

    def __post_init__(self) -> None:
        if self.start_ms < 0 or self.duration_ms <= 0:
            raise ConfigurationError("AS outage window must be positive")


@dataclass(frozen=True, kw_only=True)
class LossBurst:
    """Elevated message loss during a window (AS-scoped when asn set)."""

    start_ms: float
    duration_ms: float
    loss_rate: float
    asn: Optional[int] = None

    def __post_init__(self) -> None:
        if self.start_ms < 0 or self.duration_ms <= 0:
            raise ConfigurationError("loss burst window must be positive")
        if not 0.0 < self.loss_rate <= 1.0:
            raise ConfigurationError("loss burst rate must be in (0, 1]")


@dataclass(frozen=True, kw_only=True)
class ShardOutage:
    """One directory shard is down (process crash) during a window.

    Only meaningful when the run drives a sharded control plane (the
    churn soak); the injector skips it otherwise.  Recovery restarts
    the shard empty — soft state re-registers.
    """

    shard: int
    start_ms: float
    duration_ms: float

    def __post_init__(self) -> None:
        if self.shard < 0:
            raise ConfigurationError("shard index must be >= 0")
        if self.start_ms < 0 or self.duration_ms <= 0:
            raise ConfigurationError("shard outage window must be positive")


@dataclass(frozen=True, kw_only=True)
class FaultScheduleConfig:
    """Full description of one fault-injection experiment.

    Rates are expressed per simulated minute so schedules scale with
    ``duration_ms``; event *times* and *targets* are sampled from
    ``derive_rng(seed, ...)`` streams at compile time.
    """

    seed: int = 0
    duration_ms: float = 60_000.0
    #: Expected surrogate crashes per simulated minute (primaries of
    #: multi-host clusters; the crash also takes the host offline).
    surrogate_crash_rate_per_min: float = 0.0
    #: Expected ordinary host departures per simulated minute.
    host_churn_rate_per_min: float = 0.0
    #: Mass departures at fixed instants.
    churn_waves: Tuple[ChurnWave, ...] = ()
    #: Explicit bootstrap unreachability windows.
    bootstrap_outages: Tuple[BootstrapOutage, ...] = ()
    #: Explicit AS failure windows (asn=None entries get one sampled).
    as_outages: Tuple[ASOutage, ...] = ()
    #: Additionally sample this many AS failures at random times.
    random_as_outages: int = 0
    #: Window length for sampled AS failures.
    as_outage_duration_ms: float = 5_000.0
    #: Time-windowed elevated loss.
    loss_bursts: Tuple[LossBurst, ...] = ()
    #: Uniform background message-loss probability for the whole run.
    message_loss_rate: float = 0.0
    #: Directory shard failure windows (soak runs; no-ops elsewhere).
    shard_outages: Tuple[ShardOutage, ...] = ()

    def __post_init__(self) -> None:
        require_count("seed", self.seed, 0)
        if not 0 < self.duration_ms < math.inf:
            raise ConfigurationError("duration_ms must be positive and finite")
        if not 0 <= self.surrogate_crash_rate_per_min < math.inf:
            raise ConfigurationError("surrogate_crash_rate_per_min must be finite and >= 0")
        if not 0 <= self.host_churn_rate_per_min < math.inf:
            raise ConfigurationError("host_churn_rate_per_min must be finite and >= 0")
        require_count("random_as_outages", self.random_as_outages, 0)
        if not 0 < self.as_outage_duration_ms < math.inf:
            raise ConfigurationError("as_outage_duration_ms must be positive and finite")
        if not 0.0 <= self.message_loss_rate < 1.0:
            raise ConfigurationError("message_loss_rate must be in [0, 1)")

    @property
    def is_zero(self) -> bool:
        """True when this schedule injects nothing at all."""
        return (
            self.surrogate_crash_rate_per_min == 0.0
            and self.host_churn_rate_per_min == 0.0
            and not self.churn_waves
            and not self.bootstrap_outages
            and not self.as_outages
            and self.random_as_outages == 0
            and not self.loss_bursts
            and self.message_loss_rate == 0.0
            and not self.shard_outages
        )

    def scaled(self, intensity: float) -> "FaultScheduleConfig":
        """Scale every stochastic fault rate by ``intensity``.

        Explicit windows (outages, bursts, waves) are kept as-is; the
        chaos sweep varies the random components around them.
        """
        if intensity < 0:
            raise ConfigurationError("intensity must be >= 0")
        return replace(
            self,
            surrogate_crash_rate_per_min=self.surrogate_crash_rate_per_min * intensity,
            host_churn_rate_per_min=self.host_churn_rate_per_min * intensity,
            random_as_outages=int(round(self.random_as_outages * intensity)),
            message_loss_rate=min(self.message_loss_rate * intensity, 0.99),
        )
