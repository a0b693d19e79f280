"""Distribution helpers used by the evaluation harness and benchmarks.

The paper reports results almost exclusively as CDFs/CCDFs and scatter
series; these helpers turn raw sample arrays into the point series the
benchmark harness prints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class DistributionSummary:
    """Five-number-plus summary of a sample, for compact bench reporting."""

    count: int
    minimum: float
    p25: float
    median: float
    p75: float
    p90: float
    p99: float
    maximum: float
    mean: float

    def row(self) -> str:
        """Render as a fixed-width report row."""
        return (
            f"n={self.count:>7d}  min={self.minimum:>9.2f}  p25={self.p25:>9.2f}  "
            f"med={self.median:>9.2f}  p75={self.p75:>9.2f}  p90={self.p90:>9.2f}  "
            f"p99={self.p99:>9.2f}  max={self.maximum:>9.2f}  mean={self.mean:>9.2f}"
        )


def summarize(samples: Sequence[float]) -> DistributionSummary:
    """Compute a :class:`DistributionSummary`; raises on empty input."""
    arr = np.asarray(samples, dtype=float)
    if arr.size == 0:
        raise ValueError("cannot summarize an empty sample")
    return DistributionSummary(
        count=int(arr.size),
        minimum=float(arr.min()),
        p25=float(np.percentile(arr, 25)),
        median=float(np.percentile(arr, 50)),
        p75=float(np.percentile(arr, 75)),
        p90=float(np.percentile(arr, 90)),
        p99=float(np.percentile(arr, 99)),
        maximum=float(arr.max()),
        mean=float(arr.mean()),
    )


def percentile(samples: Sequence[float], q: float) -> float:
    """Percentile q in [0, 100] of the sample."""
    arr = np.asarray(samples, dtype=float)
    if arr.size == 0:
        raise ValueError("cannot take a percentile of an empty sample")
    return float(np.percentile(arr, q))


def cdf_points(samples: Sequence[float]) -> List[Tuple[float, float]]:
    """Empirical CDF as (value, P[X <= value]) points, sorted by value."""
    arr = np.sort(np.asarray(samples, dtype=float))
    if arr.size == 0:
        return []
    n = arr.size
    return [(float(v), (i + 1) / n) for i, v in enumerate(arr)]


def fraction_above(samples: Sequence[float], threshold: float) -> float:
    """P[X > threshold] over the sample; 0.0 for empty input."""
    arr = np.asarray(samples, dtype=float)
    if arr.size == 0:
        return 0.0
    return float(np.mean(arr > threshold))
