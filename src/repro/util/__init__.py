"""Shared utilities: deterministic RNG plumbing, distribution helpers,
and multiprocess fan-out support."""

from repro.util.parallel import (
    chunked,
    fork_available,
    plan_chunks,
    resolve_workers,
    shared_ndarray,
)
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
    "chunked",
    "derive_rng",
    "fork_available",
    "percentile",
    "plan_chunks",
    "resolve_workers",
    "shared_ndarray",
    "summarize",
]
