"""Shared utilities: deterministic RNG plumbing and distribution helpers."""

from repro.util.rng import derive_rng
from repro.util.stats import cdf_points

__all__ = [
    "cdf_points",
    "derive_rng",
]
