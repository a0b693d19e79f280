"""Fixed-width report rendering for the benchmark harness.

Benchmarks print the same rows/series the paper's figures report, so a
run's stdout is the reproduction record (EXPERIMENTS.md quotes these).
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.evaluation.metrics import MethodSummary

CDF_QUANTILES = (0.10, 0.25, 0.50, 0.75, 0.90, 0.99)


def render_cdf_row(label: str, samples: Sequence[float], unit: str = "") -> str:
    """One CDF rendered as its values at the standard quantiles."""
    arr = np.asarray(list(samples), dtype=float)
    finite = arr[np.isfinite(arr)]
    if finite.size == 0:
        return f"{label:>12} | (no finite samples)"
    cells = "  ".join(
        f"p{int(q * 100):02d}={np.percentile(finite, q * 100):>9.1f}"
        for q in CDF_QUANTILES
    )
    inf_note = "" if finite.size == arr.size else f"  (+{arr.size - finite.size} unreachable)"
    return f"{label:>12} | {cells}{unit and '  ' + unit}{inf_note}"


def render_method_table(summaries: Sequence[MethodSummary]) -> str:
    """The Section 7 comparison table, one row per method."""
    header = (
        f"{'method':>6} | {'sessions':>8} | {'qp_med':>9} {'qp_p90':>9} | "
        f"{'rtt_med':>8} {'rtt_p95':>9} {'<300ms':>7} {'>1s':>6} | "
        f"{'mos_med':>7} {'<2.9':>6} {'>3.6':>6} | {'msg_med':>8} {'msg_p90':>8}"
    )
    lines = [header, "-" * len(header)]
    for s in summaries:
        lines.append(
            f"{s.method:>6} | {s.sessions:>8d} | "
            f"{s.quality_paths_median:>9.0f} {s.quality_paths_p90:>9.0f} | "
            f"{s.best_rtt_median_ms:>8.1f} {s.best_rtt_p95_ms:>9.1f} "
            f"{s.frac_best_below_300:>7.2f} {s.frac_rtt_above_1s:>6.2f} | "
            f"{s.mos_median:>7.2f} {s.frac_mos_below_2_9:>6.2f} "
            f"{s.frac_mos_above_3_6:>6.2f} | "
            f"{s.messages_median:>8.0f} {s.messages_p90:>8.0f}"
        )
    return "\n".join(lines)


def render_series(title: str, rows: Sequence[Tuple[str, Sequence[float]]]) -> str:
    """A titled block of CDF rows (one per method/series)."""
    lines = [title]
    for label, samples in rows:
        lines.append(render_cdf_row(label, samples))
    return "\n".join(lines)


def render_kv_table(title: str, pairs: Sequence[Tuple[str, object]]) -> str:
    """A titled key/value block for scalar findings."""
    width = max((len(k) for k, _ in pairs), default=1)
    lines = [title]
    for key, value in pairs:
        if isinstance(value, float):
            lines.append(f"  {key:<{width}} : {value:.4f}")
        else:
            lines.append(f"  {key:<{width}} : {value}")
    return "\n".join(lines)
