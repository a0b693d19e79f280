"""Chaos evaluation: the ASAP runtime under injected faults.

The paper argues relays must survive a misbehaving network; this module
measures *how well* the reproduction's runtime does.  One chaos run
builds a runtime over a scenario, installs a compiled fault schedule
(:mod:`repro.faults`), drives a workload of joins and calls through it,
and distils:

- outcome counts — every join and call must reach a terminal state
  (``completed`` / ``degraded`` / ``failed``); a hung record is a bug
  and raises;
- **setup-time-under-churn**, **failover-time** and
  **interruption-time** distributions (the robustness analogues of the
  paper's Fig. 14 setup times);
- the byte-stable fault log, so two runs with the same seeds can be
  diffed line by line.

:func:`sweep_chaos` scales one base schedule across intensities to show
how gracefully quality degrades as the fault rate climbs.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.core.config import ASAPConfig
from repro.core.runtime import ASAPRuntime
from repro.errors import EvaluationError
from repro.evaluation.sessions import generate_workload
from repro.faults import FaultInjector, FaultScheduleConfig, compile_schedule
from repro.scenario import Scenario
from repro.util.rng import derive_rng


def _dist(values: Sequence[float]) -> Dict[str, float]:
    """Compact distribution summary with stable rounding."""
    if not values:
        return {"count": 0}
    arr = np.asarray(sorted(values), dtype=float)
    return {
        "count": int(arr.size),
        "mean": round(float(arr.mean()), 3),
        "p50": round(float(np.percentile(arr, 50)), 3),
        "p90": round(float(np.percentile(arr, 90)), 3),
        "max": round(float(arr.max()), 3),
    }


@dataclass
class ChaosResult:
    """Everything one chaos run produced."""

    seed: int
    fault_events: int
    join_outcomes: Counter = field(default_factory=Counter)
    call_outcomes: Counter = field(default_factory=Counter)
    media_outcomes: Counter = field(default_factory=Counter)
    setup_times_ms: List[float] = field(default_factory=list)
    failover_times_ms: List[float] = field(default_factory=list)
    interruption_times_ms: List[float] = field(default_factory=list)
    mos_dips: List[float] = field(default_factory=list)
    fault_log: List[str] = field(default_factory=list)
    messages_sent: int = 0
    messages_dropped: int = 0
    request_timeouts: int = 0

    @property
    def failovers(self) -> int:
        return len(self.failover_times_ms)

    def to_dict(self) -> dict:
        """Canonical document (stable ordering + rounding) for JSON dumps."""
        return {
            "seed": self.seed,
            "fault_events": self.fault_events,
            "joins": dict(sorted(self.join_outcomes.items())),
            "calls": dict(sorted(self.call_outcomes.items())),
            "media": dict(sorted(self.media_outcomes.items())),
            "setup_ms": _dist(self.setup_times_ms),
            "failover_ms": _dist(self.failover_times_ms),
            "interruption_ms": _dist(self.interruption_times_ms),
            "mos_dip": _dist(self.mos_dips),
            "messages": {
                "sent": self.messages_sent,
                "dropped": self.messages_dropped,
                "request_timeouts": self.request_timeouts,
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def summary_rows(self) -> List[Tuple[str, str]]:
        def outcomes(counter: Counter) -> str:
            total = sum(counter.values())
            parts = [f"{k}={v}" for k, v in sorted(counter.items())]
            return f"{total} ({', '.join(parts)})" if parts else "0"

        setup = _dist(self.setup_times_ms)
        failover = _dist(self.failover_times_ms)
        interruption = _dist(self.interruption_times_ms)
        rows = [
            ("fault events", str(self.fault_events)),
            ("joins", outcomes(self.join_outcomes)),
            ("calls", outcomes(self.call_outcomes)),
            ("media sessions", outcomes(self.media_outcomes)),
            ("setup p50/p90 ms", f"{setup.get('p50', '-')} / {setup.get('p90', '-')}"),
            ("failovers", str(self.failovers)),
        ]
        if self.failovers:
            rows.append(
                ("failover p50/max ms", f"{failover['p50']} / {failover['max']}")
            )
            rows.append(
                ("interruption p50/max ms",
                 f"{interruption['p50']} / {interruption['max']}")
            )
        rows.append(
            ("messages", f"{self.messages_sent} sent, {self.messages_dropped} dropped, "
                         f"{self.request_timeouts} request timeouts")
        )
        return rows


def schedule_workload(
    runtime: ASAPRuntime,
    scenario: Scenario,
    *,
    duration_ms: float,
    sessions: int,
    joins: int,
    media_duration_ms: float,
    seed: int,
    latent_target: Optional[int] = None,
) -> Tuple[int, int]:
    """Schedule the deterministic join/call workload on a runtime.

    Shared by :func:`run_chaos` and the churn soak
    (:mod:`repro.evaluation.soak`): both draw from the *same*
    ``derive_rng(seed, "chaos", "workload-times")`` stream in the same
    order, so a zero-churn soak schedules the byte-identical workload a
    static chaos run does.  Joins and call starts spread over the first
    80% of the window so faults overlap live protocol activity.
    Returns ``(joins_scheduled, calls_scheduled)``.
    """
    window = duration_ms * 0.8
    rng = derive_rng(seed, "chaos", "workload-times")
    workload = generate_workload(
        scenario, max(sessions, 1), seed=seed, latent_target=latent_target
    )
    pool = workload.sessions
    if latent_target:
        latent = workload.latent()
        latent_ids = {s.session_id for s in latent}
        pool = latent + [s for s in pool if s.session_id not in latent_ids]

    hosts = scenario.population.hosts
    join_times = sorted(
        round(float(t), 3) for t in rng.uniform(0.0, window, size=min(joins, len(hosts)))
    )
    for at, host in zip(join_times, hosts):
        runtime.schedule_join(host.ip, at_ms=at)

    call_times = sorted(
        round(float(t), 3)
        for t in rng.uniform(0.0, window, size=len(pool[:sessions]))
    )
    for at, session in zip(call_times, pool[:sessions]):
        runtime.schedule_call(
            session.caller,
            session.callee,
            at_ms=at,
            media_duration_ms=media_duration_ms,
        )
    return len(join_times), len(call_times)


def schedule_telemetry_ticks(runtime: ASAPRuntime, duration_ms: float) -> int:
    """Schedule periodic net-plane telemetry samples on the simulator.

    Every sample is stamped with virtual time and reads counters the
    deterministic event schedule fully determines, so same-seed runs
    emit byte-identical series.  With telemetry off this schedules
    nothing (the null timeline is falsy), keeping the disabled-path
    overhead at zero events.  Returns the number of ticks scheduled.
    """
    timeline = obs.timeline()
    if not timeline:
        return 0
    sim = runtime.sim
    network = runtime.network

    def sample() -> None:
        now = sim.now_ms
        timeline.sample("runtime.messages_sent", now, network.total_sent)
        timeline.sample("runtime.messages_dropped", now, network.dropped)
        timeline.sample("runtime.request_timeouts", now, network.total_timeouts)
        for category, count in sorted(network.timeouts_by_category.items()):
            timeline.sample("net.timeouts", now, count, category=category)
        for category, count in sorted(network.sent_by_category.items()):
            timeline.sample("net.sent", now, count, category=category)

    tick_ms = timeline.cadence_ms
    ticks = int(duration_ms // tick_ms)
    for i in range(1, ticks + 1):
        sim.schedule_at(round(i * tick_ms, 3), sample)
    return ticks


def collect_chaos_result(
    runtime: ASAPRuntime, seed: int, fault_events: int
) -> ChaosResult:
    """Distil a drained runtime's records into a :class:`ChaosResult`.

    Raises :class:`EvaluationError` if any record failed to reach a
    terminal outcome — the no-hang invariant chaos and soak CI enforce.
    The caller attaches the fault log (injector-specific).
    """
    hung = runtime.pending_records()
    if hung:
        raise EvaluationError(
            f"{len(hung)} records never reached a terminal outcome: {hung[:3]!r}"
        )

    result = ChaosResult(seed=seed, fault_events=fault_events)
    for join in runtime.joins:
        result.join_outcomes[join.outcome] += 1
    for call in runtime.call_setups:
        result.call_outcomes[call.outcome] += 1
        if call.setup_ms is not None:
            result.setup_times_ms.append(round(call.setup_ms, 3))
    for media in runtime.media_sessions:
        result.media_outcomes[media.outcome] += 1
        for event in media.failovers:
            if event.new_relay is not None:
                result.failover_times_ms.append(round(event.failover_ms, 3))
            result.interruption_times_ms.append(round(event.interruption_ms, 3))
        if media.impact is not None:
            result.mos_dips.append(round(media.impact.mos_dip, 4))
    result.messages_sent = runtime.network.total_sent
    result.messages_dropped = runtime.network.dropped
    result.request_timeouts = runtime.network.total_timeouts
    return result


def run_chaos(
    scenario: Scenario,
    fault_config: FaultScheduleConfig,
    *,
    sessions: int = 40,
    joins: int = 40,
    media_duration_ms: float = 10_000.0,
    seed: int = 0,
    asap_config: Optional[ASAPConfig] = None,
    latent_target: Optional[int] = None,
) -> ChaosResult:
    """Drive a workload through a runtime under an injected fault schedule.

    Joins and call starts are spread deterministically over the first
    80% of the schedule window so faults actually overlap live protocol
    activity.  With ``latent_target``, workload generation keeps going
    until that many latent sessions exist and those are placed first —
    relayed calls are the ones whose failover behaviour chaos (and its
    traces) are meant to exercise.  Raises :class:`EvaluationError` if
    any record fails to reach a terminal outcome — the no-hang
    invariant chaos CI enforces.
    """
    runtime = ASAPRuntime(scenario, asap_config)
    schedule = compile_schedule(fault_config, scenario)
    injector = FaultInjector(runtime, schedule)
    injector.install()

    planned_joins = min(joins, len(scenario.population.hosts))
    with obs.span("chaos.run", sessions=sessions, joins=planned_joins,
                  fault_events=len(schedule)):
        schedule_workload(
            runtime,
            scenario,
            duration_ms=fault_config.duration_ms,
            sessions=sessions,
            joins=joins,
            media_duration_ms=media_duration_ms,
            seed=seed,
            latent_target=latent_target,
        )
        schedule_telemetry_ticks(runtime, fault_config.duration_ms)
        runtime.run()

    result = collect_chaos_result(runtime, seed, fault_events=len(schedule))
    result.fault_log = injector.log_lines()
    obs.counter("chaos.runs").inc()
    obs.counter("chaos.failovers").inc(result.failovers)
    return result


def sweep_chaos(
    scenario: Scenario,
    base_config: FaultScheduleConfig,
    intensities: Sequence[float] = (0.0, 0.5, 1.0, 2.0),
    **kwargs,
) -> List[Tuple[float, ChaosResult]]:
    """One chaos run per fault intensity (0 = fault-free control)."""
    results: List[Tuple[float, ChaosResult]] = []
    for intensity in intensities:
        results.append(
            (intensity, run_chaos(scenario, base_config.scaled(intensity), **kwargs))
        )
    return results
