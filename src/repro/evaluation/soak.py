"""Long-horizon churn soak over the live control plane.

The chaos harness (:mod:`repro.evaluation.chaos`) answers "does one
fault window hurt quality?"; the soak answers the systems question the
paper's static snapshot never could: **does the control plane stay
healthy over hours of continuous churn?**  One soak run drives the
full stack — sharded directory, incremental close-set maintainer,
fault-injected runtime — through simulated hours and gates on
steady-state invariants:

- **registry bounded** — with equal join/leave rates the soft-state
  directory's peak size stays bounded and its final size equals the
  alive population (leases expire, re-registration is idempotent);
- **directory converged** — after a shard is killed and recovered,
  every alive host resolves again (failover joins moved leases to the
  ring successor; refresh passes move them home; TTL sweeps clear the
  stragglers);
- **staleness bounded** — the p95 drift of maintained close sets
  between maintenance ticks (measured against the post-repair truth)
  stays under a threshold;
- **calls terminal** — every join/call/media record reaches a terminal
  outcome; a hung record raises, exactly as in chaos.

Determinism: the workload stream is the *same seeded stream* chaos
uses (:func:`~repro.evaluation.chaos.schedule_workload`), fault
schedules compile to byte-identical timelines, and every control-plane
mutation logs a canonical JSON line — two soaks with one seed produce
byte-identical reports and logs, and a zero-fault soak reproduces the
static chaos run's records exactly.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.control import CloseSetMaintainer, HashRing, MembershipEvent, ShardedDirectory
from repro.core.config import ASAPConfig, require_count
from repro.core.runtime import ASAPRuntime
from repro.errors import ConfigurationError
from repro.evaluation.chaos import (
    _dist,
    collect_chaos_result,
    schedule_telemetry_ticks,
    schedule_workload,
)
from repro.faults import (
    ChurnWave,
    FaultInjector,
    FaultScheduleConfig,
    ShardOutage,
    compile_schedule,
)
from repro.netaddr import IPv4Address
from repro.scenario import Scenario

__all__ = ["SoakConfig", "SoakReport", "default_shard_outage", "run_soak"]


@dataclass(frozen=True, kw_only=True)
class SoakConfig:
    """One churn soak, fully described (seed ⇒ byte-identical report)."""

    seed: int = 0
    #: Simulated runtime; an hour is the acceptance floor, CI smoke uses less.
    sim_minutes: float = 60.0
    #: Directory shards on the consistent-hash ring.
    shards: int = 3

    # Workload (same knobs as chaos, same seeded stream).
    sessions: int = 40
    joins: int = 40
    media_duration_ms: float = 10_000.0
    latent_target: Optional[int] = None

    # Churn: sustained departures plus optional mass waves; every
    # departed host rejoins ``rejoin_delay_ms`` later, so join and
    # leave rates are equal by construction (the steady-state regime).
    churn_rate_per_min: float = 0.0
    churn_waves: Tuple[ChurnWave, ...] = ()
    rejoin_delay_ms: float = 30_000.0

    # Directory soft state: hosts refresh leases every maintenance
    # tick; the TTL is double the tick so one missed refresh survives.
    maintenance_interval_ms: float = 300_000.0
    registry_ttl_ms: float = 600_000.0

    # Shard failure windows (default: none; the CLI injects one).
    shard_outages: Tuple[ShardOutage, ...] = ()

    # Close-set maintenance: how many surrogates the maintainer tracks
    # and the p95 inter-tick drift the staleness gate tolerates.
    tracked_surrogates: int = 4
    staleness_p95_max: float = 0.5

    def __post_init__(self) -> None:
        # Range tests are negated so that NaN, which fails every
        # comparison, fails them too.  The run must end: its ticks are
        # counted from the duration.
        if not (math.isfinite(self.sim_minutes) and self.sim_minutes > 0):
            raise ConfigurationError("sim_minutes must be positive and finite")
        require_count("shards", self.shards, 1)
        require_count("sessions", self.sessions, 0)
        require_count("joins", self.joins, 0)
        if self.latent_target is not None:
            require_count("latent_target", self.latent_target, 0)
        require_count("tracked_surrogates", self.tracked_surrogates, 0)
        for name in (
            "media_duration_ms",
            "churn_rate_per_min",
            "rejoin_delay_ms",
            "staleness_p95_max",
        ):
            if not getattr(self, name) >= 0:
                raise ConfigurationError(f"{name} must be >= 0")
        if not self.maintenance_interval_ms > 0:
            raise ConfigurationError("maintenance_interval_ms must be positive")
        if not self.registry_ttl_ms > self.maintenance_interval_ms:
            raise ConfigurationError(
                "registry_ttl_ms must exceed maintenance_interval_ms "
                "(a lease must survive one refresh interval)"
            )
        for outage in self.shard_outages:
            if outage.shard >= self.shards:
                raise ConfigurationError(
                    f"shard outage targets shard {outage.shard}, "
                    f"only {self.shards} shards"
                )
            if outage.start_ms + outage.duration_ms >= self.duration_ms:
                raise ConfigurationError(
                    "shard outage must end before the run does "
                    "(the convergence gate needs recovery time)"
                )

    @property
    def duration_ms(self) -> float:
        return self.sim_minutes * 60_000.0

    def fault_config(self) -> FaultScheduleConfig:
        """The compiled-schedule description of this soak's faults."""
        return FaultScheduleConfig(
            seed=self.seed,
            duration_ms=self.duration_ms,
            host_churn_rate_per_min=self.churn_rate_per_min,
            churn_waves=self.churn_waves,
            shard_outages=self.shard_outages,
        )


def default_shard_outage(config: SoakConfig, shard: int = 0) -> ShardOutage:
    """The canonical mid-run shard kill: down at 30%, back at 50% —
    leaving half the run for the convergence gate to be earned in."""
    return ShardOutage(
        shard=shard,
        start_ms=round(config.duration_ms * 0.3, 3),
        duration_ms=round(config.duration_ms * 0.2, 3),
    )


@dataclass
class SoakReport:
    """Everything one soak produced, plus its gate verdicts."""

    seed: int
    sim_minutes: float
    shards: int
    hosts: int
    alive_end: int
    fault_events: int
    workload: dict = field(default_factory=dict)
    directory: dict = field(default_factory=dict)
    maintainer: dict = field(default_factory=dict)
    staleness: dict = field(default_factory=dict)
    registry_bounded: bool = True
    directory_converged: bool = True
    staleness_bounded: bool = True
    calls_terminal: bool = True
    fault_log: List[str] = field(default_factory=list)
    directory_log: List[str] = field(default_factory=list)
    repair_log: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (
            self.registry_bounded
            and self.directory_converged
            and self.staleness_bounded
            and self.calls_terminal
        )

    def log_lines(self) -> List[str]:
        """The full control-plane event log, byte-stable across runs."""
        return self.fault_log + self.directory_log + self.repair_log

    def manifest_block(self) -> dict:
        """The ``soak`` sub-document of the run manifest (schema v4)."""
        return {
            "ok": self.ok,
            "seed": self.seed,
            "sim_minutes": self.sim_minutes,
            "shards": self.shards,
            "registry_bounded": self.registry_bounded,
            "directory_converged": self.directory_converged,
            "staleness_bounded": self.staleness_bounded,
            "calls_terminal": self.calls_terminal,
            "hosts": self.hosts,
            "alive_end": self.alive_end,
            "fault_events": self.fault_events,
            "directory": self.directory,
            "maintainer": self.maintainer,
            "staleness": self.staleness,
        }

    def to_dict(self) -> dict:
        doc = self.manifest_block()
        doc["workload"] = self.workload
        doc["log"] = self.log_lines()
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def summary_rows(self) -> List[Tuple[str, str]]:
        def gate(ok: bool) -> str:
            return "pass" if ok else "FAIL"

        return [
            ("verdict", gate(self.ok)),
            ("simulated", f"{self.sim_minutes:g} min, {self.shards} shards"),
            ("hosts", f"{self.hosts} ({self.alive_end} alive at end)"),
            ("fault events", str(self.fault_events)),
            ("registry bounded", f"{gate(self.registry_bounded)} "
             f"(peak={self.directory.get('peak_total')}, end={self.directory.get('end_total')})"),
            ("directory converged", f"{gate(self.directory_converged)} "
             f"(failover_joins={self.directory.get('failover_joins')}, "
             f"misses={self.directory.get('resolve_misses')})"),
            ("close-set staleness", f"{gate(self.staleness_bounded)} "
             f"(p95={self.staleness.get('p95', 0.0)}, "
             f"repairs={self.maintainer.get('local_repairs', 0)}, "
             f"rebuilds={self.maintainer.get('rebuilds', 0)})"),
            ("calls terminal", gate(self.calls_terminal)),
        ]


def _percentile(values: Sequence[float], q: float) -> float:
    if not values:
        return 0.0
    return round(float(np.percentile(np.asarray(sorted(values), dtype=float), q)), 4)


def run_soak(
    scenario: Scenario,
    config: SoakConfig,
    *,
    asap_config: Optional[ASAPConfig] = None,
) -> SoakReport:
    """Run one churn soak; returns the gated :class:`SoakReport`.

    Raises :class:`~repro.errors.EvaluationError` if any runtime record
    hangs (the no-hang invariant); all other gate failures are recorded
    in the report (``report.ok``), not raised — CI decides the exit.
    """
    duration = config.duration_ms
    fault_config = config.fault_config()
    runtime = ASAPRuntime(scenario, asap_config)
    schedule = compile_schedule(fault_config, scenario)

    ring = HashRing(config.shards)
    directory = ShardedDirectory(
        ring, runtime.system.cluster_of_ip, ttl_ms=config.registry_ttl_ms
    )
    injector = FaultInjector(runtime, schedule, directory=directory)
    injector.install()
    maintainer = CloseSetMaintainer.from_system(runtime.system)

    hosts = scenario.population.hosts
    # The lease refresh order: every host by address text.
    refresh_order = scenario.population.ips_by_text()
    position = {ip.value: at for at, ip in enumerate(refresh_order)}
    alive = np.ones(len(refresh_order), dtype=bool)  # a mask over refresh_order
    system = runtime.system
    sim = runtime.sim
    staleness_samples: List[float] = []
    tracking_started = False

    def ensure_tracking() -> None:
        # Lazy: a zero-fault soak never builds maintainer sets, so its
        # observability stream matches the static chaos run exactly.
        nonlocal tracking_started
        if tracking_started:
            return
        tracking_started = True
        cluster_count = len(scenario.matrix_view().asn_of)
        online = [
            idx for idx in range(cluster_count)
            if maintainer.membership.is_online(idx)
        ]
        step = max(1, len(online) // max(1, config.tracked_surrogates))
        maintainer.track_many(online[::step][: config.tracked_surrogates])

    def on_leave(ip: IPv4Address) -> None:
        # Runs after the injector's fail_host at the same instant (FIFO
        # ties), so this mirrors exactly the faults that applied.
        if not alive[position[ip.value]]:
            return
        alive[position[ip.value]] = False
        now = sim.now_ms
        directory.leave(ip, now)
        ensure_tracking()
        maintainer.enqueue(
            MembershipEvent(at_ms=now, kind="host-leave", cluster=system.cluster_of_ip(ip))
        )
        sim.schedule_at(now + config.rejoin_delay_ms, lambda: on_rejoin(ip))

    def on_rejoin(ip: IPv4Address) -> None:
        if alive[position[ip.value]]:
            return
        alive[position[ip.value]] = True
        now = sim.now_ms
        runtime.network.set_host_up(ip)
        system.join(ip)
        directory.join(ip, now)
        maintainer.enqueue(
            MembershipEvent(at_ms=now, kind="host-join", cluster=system.cluster_of_ip(ip))
        )

    def maintenance_tick() -> None:
        now = sim.now_ms
        # Lease refresh pass (deterministic host order) + TTL sweep.
        directory.refresh_many(refresh_order[alive], now)
        directory.sweep(now)
        # Inter-tick close-set drift: snapshot, repair, compare against
        # the repaired truth (parity-exact with a fresh build).
        if maintainer.pending and maintainer.tracked:
            # A shallow copy is a snapshot: repairs rebind a set's arrays.
            before = {
                owner: copy.copy(maintainer.current(owner))
                for owner in maintainer.tracked
            }
            maintainer.drain()
            for owner, snapshot in before.items():
                if owner not in maintainer.tracked:
                    continue  # went dark mid-interval
                staleness = snapshot.drift_from(maintainer.current(owner))
                staleness_samples.append(staleness)
                obs.histogram("control.staleness").observe(staleness)
        else:
            maintainer.drain()
        # Per-tick control-plane timeline: virtual-time stamps, so the
        # whole series is byte-stable across same-seed soaks.
        timeline = obs.timeline()
        if timeline:
            for shard, size in enumerate(directory.sizes()):
                timeline.sample(
                    "control.shard_registrations", now, size, shard=str(shard)
                )
            timeline.sample("control.alive_hosts", now, int(np.count_nonzero(alive)))
            timeline.sample("control.repairs", now, maintainer.local_repairs)
            timeline.sample("control.rebuilds", now, maintainer.rebuilds)
            if staleness_samples:
                timeline.sample(
                    "control.staleness_latest", now, staleness_samples[-1]
                )

    # Schedule the workload first so its simulator event sequence is
    # identical to a chaos run's (same seed stream, same insertion
    # order); control-plane bookkeeping events follow.
    planned_joins = min(config.joins, len(hosts))
    with obs.span("chaos.run", sessions=config.sessions, joins=planned_joins,
                  fault_events=len(schedule)):
        schedule_workload(
            runtime,
            scenario,
            duration_ms=duration,
            sessions=config.sessions,
            joins=config.joins,
            media_duration_ms=config.media_duration_ms,
            seed=config.seed,
            latent_target=config.latent_target,
        )

        # Directory bootstrap: every host registers at t=0 (none fails over).
        directory.refresh_many(refresh_order, 0.0)

        # Mirror the schedule's host departures with control-plane
        # effects (+ a rejoin each), and run periodic maintenance.
        for event in schedule.events:
            if event.kind != "host-leave":
                continue
            ip = IPv4Address.from_string(event.target.partition(":")[2])
            sim.schedule_at(event.at_ms, (lambda ip=ip: on_leave(ip)))
        if not fault_config.is_zero:
            tick_ms = config.maintenance_interval_ms
            ticks = int(duration // tick_ms)
            for i in range(1, ticks + 1):
                sim.schedule_at(round(i * tick_ms, 3), maintenance_tick)
        schedule_telemetry_ticks(runtime, duration)

        runtime.run()

    # Drain any repairs enqueued after the final tick, then gate.
    maintainer.drain()
    end_ms = max(sim.now_ms, duration)
    workload_result = collect_chaos_result(runtime, config.seed, len(schedule))

    # Scalar: all() stops at the first miss, and the report counts resolves.
    resolved = all(directory.resolve(ip, end_ms) is not None for ip in refresh_order[alive])
    alive_end = int(np.count_nonzero(alive))
    end_total = directory.total()
    registry_bounded = directory.peak_total <= 2 * len(hosts) and end_total == alive_end
    p95 = _percentile(staleness_samples, 95)
    staleness_bounded = p95 <= config.staleness_p95_max

    directory_doc = directory.stats().to_dict()
    directory_doc.update(
        {
            "peak_total": directory.peak_total,
            "end_total": end_total,
            "sizes": list(directory.sizes()),
        }
    )
    report = SoakReport(
        seed=config.seed,
        sim_minutes=config.sim_minutes,
        shards=config.shards,
        hosts=len(hosts),
        alive_end=alive_end,
        fault_events=len(schedule),
        workload=workload_result.to_dict(),
        directory=directory_doc,
        maintainer=maintainer.stats(),
        staleness={
            "samples": len(staleness_samples),
            "p95": p95,
            "max": _percentile(staleness_samples, 100),
        },
        registry_bounded=registry_bounded,
        directory_converged=resolved and directory.failed_joins == 0,
        staleness_bounded=staleness_bounded,
        calls_terminal=True,  # collect_chaos_result raised otherwise
        fault_log=injector.log_lines(),
        directory_log=list(directory.log),
        repair_log=list(maintainer.repair_log),
    )
    obs.counter("soak.runs").inc()
    obs.annotate(soak=report.manifest_block())
    for name, ok in (
        ("soak.gate.registry_bounded", registry_bounded),
        ("soak.gate.directory_converged", report.directory_converged),
        ("soak.gate.staleness_bounded", staleness_bounded),
    ):
        obs.counter(name + (".pass" if ok else ".fail")).inc()
    return report
