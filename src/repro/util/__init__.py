"""Shared utilities: deterministic RNG plumbing and distribution helpers."""

from repro.util.rng import derive_rng
from repro.util.stats import (
    cdf_points,
    percentile,
    summarize,
    DistributionSummary,
)

__all__ = [
    "DistributionSummary",
    "cdf_points",
    "derive_rng",
    "percentile",
    "summarize",
]
