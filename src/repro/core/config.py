"""ASAP protocol parameters (paper Sections 6-7)."""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from repro.errors import ConfigurationError
from repro.voip.quality import RTT_THRESHOLD_MS


#: The Section 6.2 rule: k is this percentile of the AS hop counts of
#: paths under :data:`RTT_THRESHOLD_MS`, clamped to [K_HOPS_MIN, K_HOPS_MAX].
K_HOPS_QUANTILE = 90.0
K_HOPS_MIN, K_HOPS_MAX = 2, 8


def require_count(name: str, value, minimum: int) -> None:
    """Raise :class:`ConfigurationError` unless ``value`` is an integer —
    numpy integers are, ``bool`` and ``float`` are not — of at least
    ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigurationError(f"{name} must be >= {minimum}")


@dataclass(frozen=True, kw_only=True)
class ASAPConfig:
    """Tunables of the ASAP protocol.

    Defaults follow the paper: ``k = 4`` AS hops for the close-cluster
    BFS ("more than 90% of the sessions with direct IP routing RTTs below
    300 ms have no more than 4 AS hops"), ``lat_threshold_ms`` close to
    300 ms and ``size_threshold = 300`` candidate relay IPs before
    two-hop selection starts.  The 40 ms round-trip relay delay per hop
    is :data:`repro.measurement.latency.RELAY_DELAY_RTT_MS`.
    """

    k_hops: int = 4
    lat_threshold_ms: float = RTT_THRESHOLD_MS
    size_threshold: int = 300
    # Valley-free constraint in the close-cluster BFS (ablation knob —
    # the paper always keeps it on).
    valley_free: bool = True
    # §6.3: "For a few large clusters containing close to 1,000 online
    # end hosts, we can select multiple surrogates in them to share the
    # possible heavy load."  One surrogate per this many cluster hosts.
    hosts_per_surrogate: int = 500

    def __post_init__(self) -> None:
        # Each range test is negated so that NaN, which fails every
        # comparison, fails it too.
        require_count("k_hops", self.k_hops, 0)
        if not self.lat_threshold_ms > 0:
            raise ConfigurationError("lat_threshold_ms must be positive")
        require_count("size_threshold", self.size_threshold, 0)
        require_count("hosts_per_surrogate", self.hosts_per_surrogate, 1)


def derive_k_hops(matrices) -> int:
    """Derive the BFS hop limit by the paper's own rule.

    Section 6.2 sets k = 4 because "more than 90% of the sessions with
    direct IP routing RTTs below 300 ms have no more than 4 AS hops" in
    the paper's 2005 measurements.  Applied to any substrate: k is the
    90th percentile of AS hop counts among sub-threshold paths.  Our
    generated topologies have slightly longer AS paths than the 2005
    Internet, so this typically yields 5-6.

    Accepts any matrix view exposing ``iter_column_blocks`` — dense
    :class:`~repro.measurement.matrix.DelegateMatrices` or a streamed
    view.  Hop values are tiny non-negative ints, so the full multiset
    folds into a histogram block by block;
    :func:`_percentile_from_histogram` then replicates
    ``np.percentile``'s linear interpolation over it exactly.
    """
    counts = np.zeros(64, dtype=np.int64)
    for _, rtt, _, hops in matrices.iter_column_blocks():
        mask = np.isfinite(rtt) & (rtt < RTT_THRESHOLD_MS) & (hops >= 0)
        values = hops[mask]
        if values.size:
            high = int(values.max())
            if high >= len(counts):
                counts = np.concatenate(
                    [counts, np.zeros(high + 1 - len(counts), dtype=np.int64)]
                )
            counts += np.bincount(values, minlength=len(counts)).astype(np.int64)[
                : len(counts)
            ]
    total = int(counts.sum())
    if total == 0:
        return 4
    derived = int(_percentile_from_histogram(counts, total, K_HOPS_QUANTILE))
    return max(K_HOPS_MIN, min(K_HOPS_MAX, derived))


def _percentile_from_histogram(counts: np.ndarray, total: int, quantile: float) -> float:
    """``np.percentile(values, quantile)`` (linear method) where
    ``values`` is the sorted multiset described by ``counts`` — bitwise
    the same float, including numpy's monotonic two-sided lerp."""
    position = (total - 1) * quantile / 100.0
    lo = int(np.floor(position))
    hi = min(lo + 1, total - 1)
    cumulative = np.cumsum(counts)
    a = float(np.searchsorted(cumulative, lo, side="right"))
    b = float(np.searchsorted(cumulative, hi, side="right"))
    t = position - lo
    delta = b - a
    result = a + t * delta
    if t >= 0.5:
        result = b - delta * (1.0 - t)
    return result
