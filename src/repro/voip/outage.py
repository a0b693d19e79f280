"""Outage accounting for in-call faults: interruption time and MOS dip.

When a relay dies mid-call, packets stop flowing until failover restores
the path.  The perceptual cost of that window is modelled the blunt way
the E-model allows: during an outage the call is effectively at the MOS
floor (1.0 — "no meaning whatsoever"), the rest of the call sits at its
path MOS, and the call's effective score is the time-weighted mean.  The
*MOS dip* (base minus effective) is the chaos sweeps' headline
degradation metric, alongside raw interruption time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.errors import ConfigurationError

#: MOS assigned while no media flows (E-model scale bottom).
OUTAGE_FLOOR_MOS = 1.0


@dataclass(frozen=True)
class OutageWindow:
    """One interval of a call during which no media flowed."""

    start_ms: float
    end_ms: float

    def __post_init__(self) -> None:
        if self.end_ms < self.start_ms:
            raise ConfigurationError("outage window ends before it starts")

    @property
    def duration_ms(self) -> float:
        return self.end_ms - self.start_ms


@dataclass(frozen=True)
class OutageImpact:
    """Aggregate perceptual cost of a call's outage windows."""

    base_mos: float            # MOS of the path while media flows
    effective_mos: float       # time-weighted mean including outages
    interruption_ms: float     # total outage time (after clip + merge)
    outage_fraction: float     # interruption / call duration

    @property
    def mos_dip(self) -> float:
        return self.base_mos - self.effective_mos


def merge_windows(
    windows: Sequence[OutageWindow],
) -> List[OutageWindow]:
    """Coalesce overlapping/adjacent windows into disjoint spans."""
    if not windows:
        return []
    spans: List[Tuple[float, float]] = sorted(
        (w.start_ms, w.end_ms) for w in windows
    )
    merged: List[Tuple[float, float]] = [spans[0]]
    for start, end in spans[1:]:
        last_start, last_end = merged[-1]
        if start <= last_end:
            merged[-1] = (last_start, max(last_end, end))
        else:
            merged.append((start, end))
    return [OutageWindow(start_ms=s, end_ms=e) for s, e in merged]


def account_outages(
    base_mos: float,
    duration_ms: float,
    windows: Sequence[OutageWindow],
) -> OutageImpact:
    """Score a call's outage windows against its duration.

    Windows are clipped to the call (a failover detected after the
    natural end contributes nothing) and merged before weighting, so
    double-counted overlaps cannot push the outage fraction past 1.
    """
    if duration_ms <= 0:
        raise ConfigurationError("call duration must be positive")
    clipped = [
        OutageWindow(start_ms=max(0.0, w.start_ms), end_ms=min(duration_ms, w.end_ms))
        for w in windows
        if w.end_ms > 0 and w.start_ms < duration_ms
    ]
    interruption = sum(w.duration_ms for w in merge_windows(clipped))
    fraction = min(1.0, interruption / duration_ms)
    effective = base_mos * (1.0 - fraction) + OUTAGE_FLOOR_MOS * fraction
    # A path already at the floor cannot dip below it.
    effective = min(base_mos, max(effective, min(base_mos, OUTAGE_FLOOR_MOS)))
    return OutageImpact(
        base_mos=base_mos,
        effective_mos=effective,
        interruption_ms=interruption,
        outage_fraction=fraction,
    )
