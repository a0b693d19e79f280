"""Compile a :class:`FaultScheduleConfig` into a concrete fault timeline.

Compilation resolves every stochastic choice — crash instants, which
cluster's surrogate dies, which hosts churn, which ASes fail — against
one scenario using seeded :func:`~repro.util.rng.derive_rng` streams,
producing an ordered tuple of :class:`FaultEvent`\\ s.  The timeline is
pure data: applying it is the injector's job, so the same schedule can
be replayed against many runtimes (or serialized for audit).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.faults.config import FaultScheduleConfig
from repro.util.rng import derive_rng

#: Event kinds, in the order ties at one instant are applied.
EVENT_KINDS = (
    "surrogate-crash",
    "host-leave",
    "bootstrap-down",
    "bootstrap-up",
    "as-down",
    "as-up",
    "loss-burst-start",
    "loss-burst-end",
    "background-loss",
    # Appended (never inserted): EVENT_KINDS order is the sort tie-break,
    # so extending at the end keeps existing schedules byte-stable.
    "shard-down",
    "shard-up",
)


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault, fully resolved to a concrete target."""

    at_ms: float
    kind: str
    #: "cluster:<idx>", "host:<ip>", "bootstrap:<idx>", "as:<asn>", "net"
    target: str
    #: Loss rate for loss events; unused otherwise.
    value: Optional[float] = None

    def sort_key(self) -> Tuple[float, int, str]:
        return (self.at_ms, EVENT_KINDS.index(self.kind), self.target)


@dataclass(frozen=True)
class FaultSchedule:
    """A compiled fault timeline, sorted by (time, kind, target)."""

    seed: int
    duration_ms: float
    events: Tuple[FaultEvent, ...]

    def __len__(self) -> int:
        return len(self.events)


def _sample_times(rng, count: int, duration_ms: float) -> List[float]:
    """``count`` event instants, uniform over the run, rounded for
    stable serialization."""
    return sorted(round(float(t), 3) for t in rng.uniform(0.0, duration_ms, size=count))


def compile_schedule(
    config: FaultScheduleConfig, scenario
) -> FaultSchedule:
    """Expand a fault config against one scenario into a timeline.

    Stochastic components draw from independent seeded streams (one per
    fault family), so adding e.g. loss bursts never shifts which
    surrogates crash.
    """
    events: List[FaultEvent] = []
    duration = config.duration_ms
    clusters = scenario.clusters.all_clusters()
    matrices = scenario.matrices

    # Surrogate crashes: only multi-host clusters (a crash there forces
    # re-election; single-host clusters just go dark and are churn).
    crashable = [
        matrices.index_of[c.prefix] for c in clusters if len(c.hosts) >= 2
    ]
    if config.surrogate_crash_rate_per_min > 0 and crashable:
        rng = derive_rng(config.seed, "faults", "surrogate-crash")
        count = int(rng.poisson(config.surrogate_crash_rate_per_min * duration / 60_000.0))
        times = _sample_times(rng, count, duration)
        picks = rng.integers(0, len(crashable), size=count)
        for at, pick in zip(times, picks):
            events.append(
                FaultEvent(at_ms=at, kind="surrogate-crash", target=f"cluster:{crashable[int(pick)]}")
            )

    # Ongoing host churn + mass waves.
    hosts = scenario.population.hosts
    if config.host_churn_rate_per_min > 0 and hosts:
        rng = derive_rng(config.seed, "faults", "host-churn")
        count = int(rng.poisson(config.host_churn_rate_per_min * duration / 60_000.0))
        count = min(count, len(hosts))
        times = _sample_times(rng, count, duration)
        picks = rng.choice(len(hosts), size=count, replace=False)
        for at, pick in zip(times, sorted(int(p) for p in picks)):
            events.append(
                FaultEvent(at_ms=at, kind="host-leave", target=f"host:{hosts[pick].ip}")
            )
    for wave_index, wave in enumerate(config.churn_waves):
        if not hosts:
            break
        rng = derive_rng(config.seed, "faults", "churn-wave", str(wave_index))
        count = max(1, int(round(wave.fraction * len(hosts))))
        picks = rng.choice(len(hosts), size=min(count, len(hosts)), replace=False)
        for pick in sorted(int(p) for p in picks):
            events.append(
                FaultEvent(
                    at_ms=round(wave.at_ms, 3),
                    kind="host-leave",
                    target=f"host:{hosts[pick].ip}",
                )
            )

    # Bootstrap outage windows.
    for outage in config.bootstrap_outages:
        target = f"bootstrap:{outage.index}"
        events.append(FaultEvent(at_ms=round(outage.start_ms, 3), kind="bootstrap-down", target=target))
        events.append(
            FaultEvent(
                at_ms=round(outage.start_ms + outage.duration_ms, 3),
                kind="bootstrap-up",
                target=target,
            )
        )

    # AS failures: explicit windows plus sampled ones.
    all_asns = sorted({int(asn) for asn in matrices.asn_of})
    rng_as = derive_rng(config.seed, "faults", "as-outage")
    for outage in config.as_outages:
        asn = outage.asn
        if asn is None and all_asns:
            asn = all_asns[int(rng_as.integers(0, len(all_asns)))]
        if asn is None:
            continue
        target = f"as:{asn}"
        events.append(FaultEvent(at_ms=round(outage.start_ms, 3), kind="as-down", target=target))
        events.append(
            FaultEvent(
                at_ms=round(outage.start_ms + outage.duration_ms, 3),
                kind="as-up",
                target=target,
            )
        )
    if config.random_as_outages > 0 and all_asns:
        times = _sample_times(rng_as, config.random_as_outages, duration)
        picks = rng_as.integers(0, len(all_asns), size=config.random_as_outages)
        for at, pick in zip(times, picks):
            target = f"as:{all_asns[int(pick)]}"
            events.append(FaultEvent(at_ms=at, kind="as-down", target=target))
            events.append(
                FaultEvent(
                    at_ms=round(at + config.as_outage_duration_ms, 3),
                    kind="as-up",
                    target=target,
                )
            )

    # Loss: windowed bursts + uniform background.
    for burst in config.loss_bursts:
        target = "net" if burst.asn is None else f"as:{burst.asn}"
        events.append(
            FaultEvent(
                at_ms=round(burst.start_ms, 3),
                kind="loss-burst-start",
                target=target,
                value=burst.loss_rate,
            )
        )
        events.append(
            FaultEvent(
                at_ms=round(burst.start_ms + burst.duration_ms, 3),
                kind="loss-burst-end",
                target=target,
                value=burst.loss_rate,
            )
        )
    if config.message_loss_rate > 0:
        events.append(
            FaultEvent(
                at_ms=0.0,
                kind="background-loss",
                target="net",
                value=config.message_loss_rate,
            )
        )

    # Directory shard failure windows (live control plane runs).
    for outage in config.shard_outages:
        target = f"shard:{outage.shard}"
        events.append(FaultEvent(at_ms=round(outage.start_ms, 3), kind="shard-down", target=target))
        events.append(
            FaultEvent(
                at_ms=round(outage.start_ms + outage.duration_ms, 3),
                kind="shard-up",
                target=target,
            )
        )

    events.sort(key=FaultEvent.sort_key)
    return FaultSchedule(seed=config.seed, duration_ms=duration, events=tuple(events))
