"""Distribution helpers used by the evaluation harness and benchmarks.

The paper reports results almost exclusively as CDFs/CCDFs and scatter
series; these helpers turn raw sample arrays into the point series the
benchmark harness prints.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np


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
