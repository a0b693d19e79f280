"""Metric instruments and the registry that owns them.

Three instrument kinds, mirroring the paper's accounting needs:

- :class:`Counter` — monotonically increasing totals (probe messages,
  sessions run, cache hits);
- :class:`Gauge` — last-written values (cluster count, median MOS);
- :class:`Histogram` — value distributions with power-of-two buckets
  (span durations).

A :class:`MetricsRegistry` creates instruments on demand by name and
renders itself to a plain-dict :meth:`~MetricsRegistry.snapshot` (what
the run manifest embeds).

Everything here is zero-dependency plain Python; instruments use
``__slots__`` and do no locking (the repro is single-threaded).
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "RESERVOIR_SIZE"]


class Counter:
    """A monotonically increasing integer total."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A last-written scalar (not aggregated over time)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Optional[float] = None

    def set(self, value: float) -> None:
        self.value = value


#: Histogram bucket upper bounds are powers of two starting here; with 40
#: buckets the range spans ~1 µs to ~15 000 s when observing seconds.
_FIRST_BUCKET = 2.0 ** -20
_BUCKET_COUNT = 40

#: Raw-sample retention cap per histogram.  Beyond this, observations
#: displace reservoir entries (or are dropped) deterministically — no
#: histogram ever grows without bound on a long soak.
RESERVOIR_SIZE = 512


def _reservoir_slot(n: int) -> int:
    """Deterministic pseudo-random slot in ``[0, n)`` for observation n.

    A fixed multiplicative mix (Knuth's 2654435761) stands in for
    ``random.randrange`` so same-seed runs keep byte-identical state —
    statistical uniformity is traded for reproducibility.
    """
    x = (n * 2654435761) & 0xFFFFFFFF
    x ^= x >> 16
    return x % n


class Histogram:
    """A value distribution: count / sum / min / max plus log2 buckets.

    Bucket ``i`` counts observations in ``(2**(i-21), 2**(i-20)]``; the
    final bucket is a catch-all for anything larger.  Quantiles come from
    the buckets; a bounded deterministic reservoir additionally retains up
    to :data:`RESERVOIR_SIZE` raw samples (``dropped`` counts the ones it
    had to let go, surfaced as the ``telemetry.samples_dropped`` counter).
    """

    __slots__ = ("name", "count", "total", "min", "max", "buckets",
                 "samples", "dropped", "_on_drop")

    def __init__(
        self, name: str, on_drop: Optional[Callable[[int], None]] = None
    ) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.buckets: List[int] = [0] * _BUCKET_COUNT
        self.samples: List[float] = []
        self.dropped = 0
        self._on_drop = on_drop

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        self.buckets[_bucket_index(value)] += 1
        if len(self.samples) < RESERVOIR_SIZE:
            self.samples.append(value)
        else:
            slot = _reservoir_slot(self.count)
            if slot < RESERVOIR_SIZE:
                self.samples[slot] = value
            self.dropped += 1
            if self._on_drop is not None:
                self._on_drop(1)

    @property
    def mean(self) -> Optional[float]:
        return self.total / self.count if self.count else None

    def quantile(self, q: float) -> Optional[float]:
        """Estimate the ``q``-quantile (``0 <= q <= 1``) from the buckets.

        Linear interpolation inside the covering bucket's bounds, with
        the result clamped to the observed ``[min, max]`` — so single
        observations report themselves exactly and estimates can never
        leave the observed range.  Resolution is the bucket width (a
        factor of two), which is plenty for spotting tail blow-ups.
        """
        if not self.count:
            return None
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        rank = q * self.count
        cumulative = 0
        for index, bucket in enumerate(self.buckets):
            if not bucket:
                continue
            if cumulative + bucket >= rank:
                lower = 0.0 if index == 0 else _FIRST_BUCKET * 2.0 ** (index - 1)
                upper = _FIRST_BUCKET * 2.0 ** index
                fraction = (rank - cumulative) / bucket
                estimate = lower + fraction * (upper - lower)
                return min(max(estimate, self.min), self.max)
            cumulative += bucket
        return self.max


def _bucket_index(value: float) -> int:
    if value <= _FIRST_BUCKET:
        return 0
    index = int(math.ceil(math.log2(value / _FIRST_BUCKET)))
    return min(index, _BUCKET_COUNT - 1)


class MetricsRegistry:
    """Creates and owns named instruments; snapshot/merge for fan-out."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- instrument access (create on first use) ---------------------------

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(
                name, on_drop=self._count_dropped
            )
        return instrument

    def _count_dropped(self, amount: int) -> None:
        """Reservoir truncation is never silent: it shows up as a counter."""
        self.counter("telemetry.samples_dropped").inc(amount)

    # -- read side ---------------------------------------------------------

    def counter_value(self, name: str) -> int:
        """Current value of a counter (0 when it never fired)."""
        instrument = self._counters.get(name)
        return instrument.value if instrument is not None else 0

    def snapshot(self) -> dict:
        """Plain-dict view of every instrument (JSON-serializable)."""
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {
                n: {
                    "count": h.count,
                    "sum": h.total,
                    "min": h.min,
                    "max": h.max,
                    "p50": h.quantile(0.50),
                    "p95": h.quantile(0.95),
                    "p99": h.quantile(0.99),
                    "buckets": list(h.buckets),
                    "samples": list(h.samples),
                    "dropped": h.dropped,
                }
                for n, h in sorted(self._histograms.items())
            },
        }
