"""Per-session per-method metric records and summaries (Section 7.1).

The paper's three metrics: (1) number of quality paths, (2) shortest
RTT / highest MOS of those paths, (3) overhead in messages.  Records
round-trip through CSV for external analysis (:func:`save_records_csv`).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.baselines.base import MethodResult
from repro.core.protocol import ASAPSession
from repro.errors import ReproError
from repro.voip.quality import RTT_THRESHOLD_MS, mos_of_path

PathLike = Union[str, Path]


@dataclass(frozen=True)
class MethodRecord:
    """One method's metrics on one session.

    ``one_hop_quality_paths`` counts individual one-hop relay IPs only
    (two-hop candidates are IP *pairs* and scale quadratically with the
    population, so per-capita comparisons — Fig. 17 — use the one-hop
    count).  For baselines it equals ``quality_paths``.
    """

    method: str
    session_id: int
    quality_paths: int
    best_rtt_ms: Optional[float]
    highest_mos: Optional[float]
    messages: int
    one_hop_quality_paths: Optional[int] = None

    @property
    def one_hop_count(self) -> int:
        if self.one_hop_quality_paths is not None:
            return self.one_hop_quality_paths
        return self.quality_paths


def record_from_baseline(session_id: int, result: MethodResult) -> MethodRecord:
    """Convert a baseline MethodResult into a MethodRecord."""
    mos = (
        mos_of_path(result.best_rtt_ms)
        if result.best_rtt_ms is not None and np.isfinite(result.best_rtt_ms)
        else None
    )
    return MethodRecord(
        method=result.method,
        session_id=session_id,
        quality_paths=result.quality_paths,
        best_rtt_ms=result.best_rtt_ms,
        highest_mos=mos,
        messages=result.messages,
        one_hop_quality_paths=result.one_hop_quality_paths,
    )


def record_from_asap(session: ASAPSession, session_id: int) -> MethodRecord:
    """Convert an ASAPSession into a MethodRecord."""
    best = session.best_relay_rtt_ms
    mos = mos_of_path(best) if best is not None else None
    one_hop = session.selection.one_hop_ips if session.selection else 0
    return MethodRecord(
        method="ASAP",
        session_id=session_id,
        quality_paths=session.quality_paths,
        best_rtt_ms=best,
        highest_mos=mos,
        messages=session.messages,
        one_hop_quality_paths=one_hop,
    )


@dataclass(frozen=True)
class MethodSummary:
    """Distribution summary of one method over many sessions."""

    method: str
    sessions: int
    quality_paths_median: float
    quality_paths_p90: float
    best_rtt_median_ms: float
    best_rtt_p95_ms: float
    frac_best_below_300: float
    frac_rtt_above_1s: float
    mos_median: float
    frac_mos_below_2_9: float
    frac_mos_above_3_6: float
    messages_median: float
    messages_p90: float


def summarize_method(records: Sequence[MethodRecord]) -> MethodSummary:
    """Aggregate records (all from one method) into a summary row: one
    pass over the records, one median and one 90th-percentile call over
    stacked columns.  Each statistic keeps its own formula (a median and
    a 50th percentile can differ in the last ulp), so every float is a
    reduction per statistic's (``tests/oracles.py``)."""
    if not records:
        raise ValueError("cannot summarize zero records")
    methods = {r.method for r in records}
    if len(methods) != 1:
        raise ValueError(f"records mix methods: {sorted(methods)}")
    qp, rtts, mos, msgs = np.array(
        [
            (r.quality_paths, np.inf if r.best_rtt_ms is None else r.best_rtt_ms,
             1.0 if r.highest_mos is None else r.highest_mos, r.messages)
            for r in records
        ],
        dtype=float,
    ).T
    qp_median, mos_median, msgs_median = np.median(np.stack((qp, mos, msgs)), axis=1).tolist()
    qp_p90, msgs_p90 = np.percentile(np.stack((qp, msgs)), 90, axis=1).tolist()
    finite = np.isfinite(rtts)
    finite_rtts = rtts[finite]
    n = len(records)
    return MethodSummary(
        method=methods.pop(),
        sessions=n,
        quality_paths_median=qp_median,
        quality_paths_p90=qp_p90,
        best_rtt_median_ms=float(np.median(finite_rtts)) if finite_rtts.size else float("inf"),
        best_rtt_p95_ms=float(np.percentile(finite_rtts, 95)) if finite_rtts.size else float("inf"),
        frac_best_below_300=int(np.count_nonzero(rtts < RTT_THRESHOLD_MS)) / n,
        frac_rtt_above_1s=int(np.count_nonzero(~finite | (rtts > 1000.0))) / n,
        mos_median=mos_median,
        frac_mos_below_2_9=int(np.count_nonzero(mos < 2.9)) / n,
        frac_mos_above_3_6=int(np.count_nonzero(mos > 3.6)) / n,
        messages_median=msgs_median,
        messages_p90=msgs_p90,
    )


_CSV_FIELDS = (
    "method",
    "session_id",
    "quality_paths",
    "best_rtt_ms",
    "highest_mos",
    "messages",
    "one_hop_quality_paths",
)


def save_records_csv(path: PathLike, records: Sequence[MethodRecord]) -> int:
    """Write method records to CSV; returns the row count."""
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=_CSV_FIELDS)
        writer.writeheader()
        for record in records:
            writer.writerow(
                {
                    "method": record.method,
                    "session_id": record.session_id,
                    "quality_paths": record.quality_paths,
                    "best_rtt_ms": "" if record.best_rtt_ms is None else record.best_rtt_ms,
                    "highest_mos": "" if record.highest_mos is None else record.highest_mos,
                    "messages": record.messages,
                    "one_hop_quality_paths": (
                        "" if record.one_hop_quality_paths is None
                        else record.one_hop_quality_paths
                    ),
                }
            )
    return len(records)


def load_records_csv(path: PathLike) -> List[MethodRecord]:
    """Read method records written by :func:`save_records_csv`."""
    records: List[MethodRecord] = []
    with Path(path).open(newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        missing = set(_CSV_FIELDS) - set(reader.fieldnames or ())
        if missing:
            raise ReproError(f"records CSV missing columns: {sorted(missing)}")
        for row in reader:
            records.append(
                MethodRecord(
                    method=row["method"],
                    session_id=int(row["session_id"]),
                    quality_paths=int(row["quality_paths"]),
                    best_rtt_ms=float(row["best_rtt_ms"]) if row["best_rtt_ms"] else None,
                    highest_mos=float(row["highest_mos"]) if row["highest_mos"] else None,
                    messages=int(row["messages"]),
                    one_hop_quality_paths=(
                        int(row["one_hop_quality_paths"])
                        if row["one_hop_quality_paths"]
                        else None
                    ),
                )
            )
    return records
