"""``repro.obs`` — run-wide observability: metrics, spans, run manifests.

The paper's core claims are *accounting* claims — probe message counts
(Fig. 18), call-setup stabilization (Skype Limit 3), close-set build
cost — so the repro carries a first-class, zero-dependency measurement
layer.  Three pieces:

- a :class:`~repro.obs.registry.MetricsRegistry` of counters, gauges
  and histograms (created on demand by name);
- :mod:`span <repro.obs.spans>` timers with nesting and a structured
  JSONL :class:`~repro.obs.events.EventSink`;
- a per-run :mod:`manifest <repro.obs.manifest>` — canonical config
  hash (shared with :mod:`repro.storage.cache`), seed, wall times,
  cache hit/miss counts and the final counter snapshot
  — written next to every result directory.

**Off by default, near-zero overhead.**  Instrumented code calls the
module-level hooks (:func:`counter`, :func:`span`, …); with no active
run these return shared no-op instruments, so the cost is one global
read and an attribute call.  A run is activated explicitly::

    with obs.observe(obs_dir="out/obs", command="section7") as run:
        ...                      # counters/spans/events accumulate
    # run_manifest.json + events.jsonl now exist under out/obs
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from datetime import datetime, timezone
from pathlib import Path
from typing import List, Optional, Union

from repro.obs.events import LOG_LEVELS, EventSink
from repro.obs.manifest import (
    MANIFEST_FILENAME,
    MANIFEST_SCHEMA,
    MANIFEST_SCHEMA_VERSION,
    load_manifest,
    validate_manifest,
    write_manifest,
)
from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.spans import NULL_SPAN, Span
from repro.obs.timeseries import (
    NULL_TIMELINE,
    TELEMETRY_FILENAME,
    TELEMETRY_SCHEMA_VERSION,
    TimeSeries,
    load_telemetry_file,
    validate_telemetry_records,
)
from repro.obs.trace import (
    NULL_TRACE_SPAN,
    NULL_TRACER,
    TRACE_SCHEMA_VERSION,
    TRACES_FILENAME,
    Tracer,
    TraceSpan,
    load_trace_file,
    load_trace_files,
    validate_trace_records,
)

__all__ = [
    "Counter",
    "EventSink",
    "Gauge",
    "Histogram",
    "LOG_LEVELS",
    "MANIFEST_FILENAME",
    "MANIFEST_SCHEMA",
    "MANIFEST_SCHEMA_VERSION",
    "MetricsRegistry",
    "NULL_TIMELINE",
    "NULL_TRACER",
    "NULL_TRACE_SPAN",
    "RunObserver",
    "TELEMETRY_FILENAME",
    "TELEMETRY_SCHEMA_VERSION",
    "TRACES_FILENAME",
    "TRACE_SCHEMA_VERSION",
    "TimeSeries",
    "Tracer",
    "TraceSpan",
    "active",
    "annotate",
    "counter",
    "enabled",
    "event",
    "finish_run",
    "gauge",
    "histogram",
    "load_manifest",
    "load_telemetry_file",
    "load_trace_file",
    "load_trace_files",
    "observe",
    "span",
    "start_run",
    "timeline",
    "tracer",
    "validate_manifest",
    "validate_telemetry_records",
    "validate_trace_records",
    "write_manifest",
]

#: Events file name inside an observability directory.
EVENTS_FILENAME = "events.jsonl"


class RunObserver:
    """One run's accumulated observability state.

    Owns the metrics registry, the (optional) JSONL event sink, the
    manifest annotations and the span-nesting depth.  Create through
    :func:`start_run` / :func:`observe` rather than directly so the
    module-level hooks see it.
    """

    def __init__(
        self,
        obs_dir: Optional[Union[str, Path]] = None,
        command: str = "",
        argv: Optional[List[str]] = None,
        log_level: str = "info",
        trace: bool = False,
    ) -> None:
        self.registry = MetricsRegistry()
        self.timeline = TimeSeries()
        self.obs_dir = Path(obs_dir) if obs_dir is not None else None
        self.command = command
        self.argv = list(argv) if argv is not None else []
        self.log_level = log_level
        self.started_at = time.time()
        self.run_id = f"{int(self.started_at * 1000):x}-{os.getpid():x}"
        self.annotations: dict = {}
        self.span_depth = 0
        self.finished = False
        self.sink: Optional[EventSink] = (
            EventSink(
                self.obs_dir / EVENTS_FILENAME,
                level=log_level,
                start_time=self.started_at,
            )
            if self.obs_dir is not None
            else None
        )
        self.trace: Optional[Tracer] = (
            Tracer(
                self.obs_dir / TRACES_FILENAME
                if self.obs_dir is not None
                else None
            )
            if trace
            else None
        )
        if self.sink is not None:
            self.sink.emit("event", "run.start", command=command, run_id=self.run_id)

    # -- manifest ----------------------------------------------------------

    def annotate(self, **fields) -> None:
        """Record manifest facts (seed, scale, config hash, …)."""
        self.annotations.update(fields)

    def manifest_document(self) -> dict:
        """The run manifest as a plain dict (see :mod:`repro.obs.manifest`)."""
        snapshot = self.registry.snapshot()
        counters = snapshot["counters"]
        known = {"seed", "scale", "config_key", "soak"}
        return {
            "schema": MANIFEST_SCHEMA_VERSION,
            "run_id": self.run_id,
            "command": self.command,
            "argv": self.argv,
            "started_at": datetime.fromtimestamp(
                self.started_at, tz=timezone.utc
            ).isoformat(),
            "wall_seconds": round(time.time() - self.started_at, 6),
            "seed": self.annotations.get("seed"),
            "scale": self.annotations.get("scale"),
            "config_key": self.annotations.get("config_key"),
            "soak": self.annotations.get("soak"),
            "cache": {
                "scenario_hits": counters.get("cache.scenario.hits", 0),
                "scenario_misses": counters.get("cache.scenario.misses", 0),
            },
            "network": {
                "messages_dropped": counters.get("net.dropped", 0),
                "request_timeouts": counters.get("net.timeouts", 0),
            },
            "telemetry": {
                "file": TELEMETRY_FILENAME if self.obs_dir is not None else None,
                "samples": self.timeline.sample_count,
                "series": len(self.timeline.series_names()),
                "cadence_ms": self.timeline.cadence_ms,
                "samples_dropped": counters.get("telemetry.samples_dropped", 0),
            },
            "counters": counters,
            "gauges": snapshot["gauges"],
            "histograms": snapshot["histograms"],
            "events_file": EVENTS_FILENAME if self.sink is not None else None,
            "events_written": self.sink.events_written if self.sink is not None else 0,
            "traces_file": (
                TRACES_FILENAME
                if self.trace is not None and self.trace.path is not None
                else None
            ),
            "traces_written": (
                self.trace.records_written if self.trace is not None else 0
            ),
            "annotations": {
                k: v for k, v in sorted(self.annotations.items()) if k not in known
            },
        }

    def finish(self) -> Optional[Path]:
        """Close the sink and write the manifest; returns its path."""
        if self.finished:
            raise RuntimeError("run observer already finished")
        self.finished = True
        if self.sink is not None:
            self.sink.emit(
                "event",
                "run.finish",
                wall_s=round(time.time() - self.started_at, 6),
            )
        document = self.manifest_document()
        if self.sink is not None:
            self.sink.close()
        if self.trace is not None:
            self.trace.close()
        if self.obs_dir is None:
            return None
        self.timeline.write(self.obs_dir / TELEMETRY_FILENAME)
        return write_manifest(self.obs_dir / MANIFEST_FILENAME, document)


# -- the active run and its no-op stand-ins ---------------------------------

_ACTIVE: Optional[RunObserver] = None


class _NullCounter:
    __slots__ = ()
    value = 0

    def inc(self, amount: int = 1) -> None:
        pass


class _NullGauge:
    __slots__ = ()
    value = None

    def set(self, value: float) -> None:
        pass


class _NullHistogram:
    __slots__ = ()
    count = 0

    def observe(self, value: float) -> None:
        pass


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()


def enabled() -> bool:
    """Whether a run observer is currently active."""
    return _ACTIVE is not None


def active() -> Optional[RunObserver]:
    """The active run observer, or ``None``."""
    return _ACTIVE


def counter(name: str):
    """The named counter of the active run (shared no-op when off)."""
    observer = _ACTIVE
    return observer.registry.counter(name) if observer is not None else _NULL_COUNTER


def gauge(name: str):
    """The named gauge of the active run (shared no-op when off)."""
    observer = _ACTIVE
    return observer.registry.gauge(name) if observer is not None else _NULL_GAUGE


def histogram(name: str):
    """The named histogram of the active run (shared no-op when off)."""
    observer = _ACTIVE
    return (
        observer.registry.histogram(name) if observer is not None else _NULL_HISTOGRAM
    )


def timeline():
    """The active run's time-series buffer (shared falsy no-op when off).

    Call ``obs.timeline().sample(series, t_ms, value, **tags)`` with a
    virtual-clock timestamp; samples land in ``telemetry.jsonl`` at run
    close (see :mod:`repro.obs.timeseries`).
    """
    observer = _ACTIVE
    return observer.timeline if observer is not None else NULL_TIMELINE


def tracer():
    """The active run's causal tracer (shared falsy no-op when off).

    Falsy unless the run was started with ``trace=True``, so call sites
    guard with ``if (t := obs.tracer()):`` — or just hold the spans it
    returns, which are themselves free no-ops when tracing is off.
    """
    observer = _ACTIVE
    if observer is not None and observer.trace is not None:
        return observer.trace
    return NULL_TRACER


def span(name: str, level: str = "info", **fields):
    """A timed span context manager (free no-op when off)."""
    observer = _ACTIVE
    if observer is None:
        return NULL_SPAN
    return Span(observer, name, level=level, **fields)


def event(name: str, level: str = "info", **fields) -> None:
    """Emit one structured JSONL event (dropped when off or below level)."""
    observer = _ACTIVE
    if observer is not None and observer.sink is not None:
        observer.sink.emit("event", name, level=level, **fields)


def annotate(**fields) -> None:
    """Attach manifest facts to the active run (no-op when off)."""
    observer = _ACTIVE
    if observer is not None:
        observer.annotate(**fields)


def start_run(
    obs_dir: Optional[Union[str, Path]] = None,
    command: str = "",
    argv: Optional[List[str]] = None,
    log_level: str = "info",
    trace: bool = False,
) -> RunObserver:
    """Activate observability for the current process.

    With ``obs_dir`` set, events stream to ``<obs_dir>/events.jsonl``
    and :func:`finish_run` writes ``<obs_dir>/run_manifest.json``;
    without it, metrics still accumulate in memory (useful in tests).
    With ``trace=True``, causal trace records additionally stream to
    ``<obs_dir>/traces.jsonl`` (see :mod:`repro.obs.trace`).
    """
    global _ACTIVE
    if _ACTIVE is not None:
        raise RuntimeError("an observability run is already active")
    _ACTIVE = RunObserver(
        obs_dir=obs_dir, command=command, argv=argv, log_level=log_level, trace=trace
    )
    return _ACTIVE


def finish_run() -> Optional[Path]:
    """Finish the active run; returns the manifest path (if any)."""
    global _ACTIVE
    observer = _ACTIVE
    if observer is None:
        return None
    _ACTIVE = None
    return observer.finish()


@contextmanager
def observe(
    obs_dir: Optional[Union[str, Path]] = None,
    command: str = "",
    argv: Optional[List[str]] = None,
    log_level: str = "info",
    trace: bool = False,
):
    """``start_run``/``finish_run`` as a context manager."""
    observer = start_run(
        obs_dir=obs_dir, command=command, argv=argv, log_level=log_level, trace=trace
    )
    try:
        yield observer
    finally:
        finish_run()
