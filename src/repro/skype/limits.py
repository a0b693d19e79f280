"""Structured detection of the paper's four Skype limits.

Section 5 reads limits off the traces by hand; this module turns the
same criteria into an API over :class:`~repro.skype.analyzer.SessionAnalysis`
results, so experiments can ask "which sessions exhibit Limit N?" and
get an auditable answer.

- **Limit 1** — suboptimal major path: the session's major relay path
  is above the RTT requirement although a better probed path existed.
- **Limit 2** — same-AS probes: more than one relay probed inside one AS.
- **Limit 3** — long stabilization: the majors took longer than a bound
  to become constant (relay bounce).
- **Limit 4** — probing overhead: more nodes probed than a bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.measurement.latency import RELAY_DELAY_RTT_MS
from repro.netaddr import IPv4Address
from repro.skype.analyzer import SessionAnalysis, TraceAnalyzer
from repro.skype.session import SkypeSessionResult
from repro.voip.quality import RTT_THRESHOLD_MS


@dataclass(frozen=True)
class LimitThresholds:
    """What counts as exhibiting each limit."""

    rtt_requirement_ms: float = RTT_THRESHOLD_MS
    long_stabilization_ms: float = 5_000.0
    heavy_probing_nodes: int = 20


@dataclass
class Limit1Finding:
    """A session whose major path is slow while a faster probe existed."""

    session_id: int
    major_path_rtt_ms: float
    best_probed_rtt_ms: float

    @property
    def wasted_ms(self) -> float:
        return self.major_path_rtt_ms - self.best_probed_rtt_ms


@dataclass
class LimitReport:
    """Which sessions exhibit which limits."""

    limit1: List[Limit1Finding] = field(default_factory=list)
    limit2: Dict[int, Dict[int, List[IPv4Address]]] = field(default_factory=dict)
    limit3: Dict[int, float] = field(default_factory=dict)   # session → stab ms
    limit4: Dict[int, int] = field(default_factory=dict)     # session → probes

    def sessions_with_any_limit(self) -> List[int]:
        ids = {f.session_id for f in self.limit1}
        ids |= set(self.limit2) | set(self.limit3) | set(self.limit4)
        return sorted(ids)

    def summary_rows(self) -> List[Tuple[str, object]]:
        return [
            ("Limit 1 (suboptimal major) sessions", len(self.limit1)),
            ("Limit 2 (same-AS probes) sessions", len(self.limit2)),
            ("Limit 3 (long stabilization) sessions", len(self.limit3)),
            ("Limit 4 (heavy probing) sessions", len(self.limit4)),
            ("sessions with any limit", len(self.sessions_with_any_limit())),
        ]


def detect_limits(
    analyses: Sequence[SessionAnalysis],
    results: Sequence[SkypeSessionResult],
    analyzer: TraceAnalyzer,
    thresholds: LimitThresholds = LimitThresholds(),
) -> LimitReport:
    """Run all four detectors over a batch of analyzed sessions.

    Limit 1 scores probed paths with the analyzer's King estimator and
    population registry (exactly the paper's method); an analyzer
    without both skips it.
    """
    limit1 = analyzer.king is not None and analyzer.population is not None
    report = LimitReport()
    for analysis, result in zip(analyses, results):
        # Limit 2: same-AS probe groups (already computed by analysis).
        if analysis.same_as_probes:
            report.limit2[analysis.session_id] = dict(analysis.same_as_probes)
        # Limit 3: stabilization beyond the bound.
        if analysis.stabilization_ms > thresholds.long_stabilization_ms:
            report.limit3[analysis.session_id] = analysis.stabilization_ms
        # Limit 4: heavy probing.
        if analysis.total_probed > thresholds.heavy_probing_nodes:
            report.limit4[analysis.session_id] = analysis.total_probed
        # Limit 1: slow major despite a faster probed path.
        if limit1:
            finding = _detect_limit1(analysis, result, analyzer, thresholds)
            if finding is not None:
                report.limit1.append(finding)
    return report


def _detect_limit1(
    analysis: SessionAnalysis,
    result: SkypeSessionResult,
    analyzer: TraceAnalyzer,
    thresholds: LimitThresholds,
) -> Optional[Limit1Finding]:
    king, population = analyzer.king, analyzer.population
    trace = result.trace
    forward = analysis.forward
    # Major path RTT: direct (ping) or via the major relay (King legs).
    try:
        caller = population.by_ip(trace.caller)
        callee = population.by_ip(trace.callee)
    except Exception:
        return None
    if forward.major_carrier is None:
        major_rtt = king.estimate(caller, callee)
    elif forward.major_carrier in population:
        relay = population.by_ip(forward.major_carrier)
        leg1 = king.estimate(caller, relay)
        leg2 = king.estimate(relay, callee)
        major_rtt = (
            leg1 + leg2 + RELAY_DELAY_RTT_MS
            if leg1 is not None and leg2 is not None
            else None
        )
    else:
        major_rtt = None
    if major_rtt is None or major_rtt <= thresholds.rtt_requirement_ms:
        return None

    series = analyzer.relay_time_series(trace, trace.caller, trace.callee)
    estimates = [e for _, _, e in series if e is not None]
    if not estimates:
        return None
    best = min(estimates)
    if best < major_rtt:
        return Limit1Finding(
            session_id=analysis.session_id,
            major_path_rtt_ms=major_rtt,
            best_probed_rtt_ms=best,
        )
    return None
