"""Deterministic sim-time time-series telemetry (``telemetry.jsonl``).

Counters and manifests show a run's *totals*; traces show *per-call
causality*.  This module adds the third axis — *behaviour over time*:
shard registration ramps, spill throughput, backpressure queue depth,
repair-vs-rebuild rates.  The design constraints mirror the trace layer:

- **Sim-time determinism.**  Every sample is stamped with a timestamp the
  caller supplies from a virtual clock (``Simulator.now_ms``,
  ``LoopbackHub.now_ms``), never the wall clock, so same-seed runs emit
  byte-identical ``telemetry.jsonl``.  Sample values that are *inherently*
  machine timings (stage seconds, rows/s, peak RSS) are flagged
  ``"wall": true`` and excluded from the byte-stability contract;
  sim-driven runs (chaos, soak, loopback demos) emit only
  deterministic samples so CI can byte-diff their full files.
- **Deterministic byte order.**  Records buffer in memory and are written
  once at run close, sorted by ``(t_ms, series, tags)`` with insertion
  order breaking ties, in canonical JSON (sorted keys, no spaces).
- **Zero cost when off.**  :data:`NULL_TIMELINE` absorbs every call; the
  module-level ``repro.obs.timeline()`` hook returns it when no run is
  active.

Periodic samplers schedule their own ticks on the virtual clock (see
:func:`repro.evaluation.chaos.schedule_telemetry_ticks`), so the sample
grid itself is a pure function of the clock.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

from repro.errors import ArtifactError
from repro.obs.events import read_jsonl

__all__ = [
    "TELEMETRY_FILENAME",
    "TELEMETRY_SCHEMA_VERSION",
    "NULL_TIMELINE",
    "TimeSeries",
    "load_telemetry_file",
    "validate_telemetry_records",
]

#: Bump when the telemetry JSONL record semantics change.
TELEMETRY_SCHEMA_VERSION = 1

#: Canonical file name inside an observability directory.
TELEMETRY_FILENAME = "telemetry.jsonl"

#: Default sample cadence (sim milliseconds) recorded in the file header.
DEFAULT_CADENCE_MS = 1000.0


def _json_line(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def _canonical_value(value):
    """Round floats so equal computations render identically."""
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            return None
        return round(value, 6)
    return value


class TimeSeries:
    """An in-memory buffer of timeline samples, written at run close.

    ``sample()`` is the whole write API: a series name, a virtual-clock
    timestamp, a numeric value, and optional string tags.  Pass
    ``wall=True`` for values derived from machine time — they stay in the
    file but are excluded from the byte-stability contract (and callers
    should stamp them with whatever monotone t_ms is convenient).
    """

    __slots__ = ("cadence_ms", "_samples", "_seq")

    def __init__(self, cadence_ms: float = DEFAULT_CADENCE_MS) -> None:
        self.cadence_ms = float(cadence_ms)
        self._samples: List[Tuple[float, str, str, int, dict]] = []
        self._seq = 0

    def __bool__(self) -> bool:  # mirrors NULL_TIMELINE's falsiness contract
        return True

    # -- write side --------------------------------------------------------

    def sample(
        self,
        series: str,
        t_ms: float,
        value,
        wall: bool = False,
        **tags: str,
    ) -> None:
        record = {
            "kind": "sample",
            "series": series,
            "t_ms": round(float(t_ms), 3),
            "value": _canonical_value(value),
        }
        if tags:
            record["tags"] = {k: str(v) for k, v in sorted(tags.items())}
        if wall:
            record["wall"] = True
        key = _json_line(record.get("tags", {}))
        self._samples.append((record["t_ms"], series, key, self._seq, record))
        self._seq += 1

    def snapshot(self) -> List[dict]:
        """The buffered records, in deterministic output order."""
        return [entry[4] for entry in sorted(self._samples, key=lambda e: e[:4])]

    # -- read side ---------------------------------------------------------

    @property
    def sample_count(self) -> int:
        return len(self._samples)

    def series_names(self) -> List[str]:
        return sorted({entry[1] for entry in self._samples})

    def write(self, path: Union[str, Path]) -> Tuple[Path, int]:
        """Write header + sorted samples as canonical JSONL."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "kind": "header",
            "schema": TELEMETRY_SCHEMA_VERSION,
            "cadence_ms": self.cadence_ms,
        }
        lines = [_json_line(header)]
        lines.extend(_json_line(record) for record in self.snapshot())
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path, len(self._samples)


class _NullTimeline:
    """Falsy no-op stand-in when no run is active."""

    __slots__ = ()

    def __bool__(self) -> bool:
        return False

    def sample(self, series, t_ms, value, wall=False, **tags) -> None:
        pass


NULL_TIMELINE = _NullTimeline()


# -- file side -------------------------------------------------------------

_SAMPLE_FIELDS = ("kind", "series", "t_ms", "value")


def validate_telemetry_records(records: Sequence[dict]) -> List[str]:
    """Return human-readable problems; empty means the file conforms."""
    problems: List[str] = []
    if not records:
        return ["telemetry file is empty (expected a header record)"]
    strays = [i for i, record in enumerate(records, 1) if not isinstance(record, dict)]
    if strays:
        return [f"line {index}: not an object" for index in strays]
    header = records[0]
    if header.get("kind") != "header":
        problems.append("first record must be the header")
    elif header.get("schema") != TELEMETRY_SCHEMA_VERSION:
        problems.append(
            f"schema must be {TELEMETRY_SCHEMA_VERSION}, got {header.get('schema')!r}"
        )
    previous: Optional[Tuple[float, str]] = None
    for index, record in enumerate(records[1:], start=2):
        kind = record.get("kind")
        if kind != "sample":
            problems.append(f"line {index}: unknown record kind {kind!r}")
            continue
        for field in _SAMPLE_FIELDS:
            if field not in record:
                problems.append(f"line {index}: missing field {field!r}")
        extra = set(record) - set(_SAMPLE_FIELDS) - {"tags", "wall"}
        if extra:
            problems.append(f"line {index}: unexpected fields {sorted(extra)}")
        series = record.get("series")
        t_ms = record.get("t_ms")
        if isinstance(t_ms, (int, float)) and isinstance(series, str):
            key = (float(t_ms), series)
            if previous is not None and key < previous:
                problems.append(f"line {index}: samples out of (t_ms, series) order")
            previous = key
    return problems


def load_telemetry_file(path: Union[str, Path]) -> List[dict]:
    """Read and validate a ``telemetry.jsonl`` file."""
    records = read_jsonl(path)
    problems = validate_telemetry_records(records)
    if problems:
        raise ArtifactError(f"invalid telemetry file {path}: " + "; ".join(problems))
    return records
