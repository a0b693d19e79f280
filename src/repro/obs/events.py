"""Structured JSONL event sink.

One line per event, append-only, flushed on close::

    {"t": 0.0123, "level": "info", "kind": "span", "name": "scenario.build",
     "dur_s": 1.87, "depth": 0}

``t`` is seconds since the run started (wall clock).  Levels follow the
usual ordering ``debug < info < warn``; a sink configured at ``info``
silently drops ``debug`` events, which is how high-cardinality span
streams (per-cluster close-set builds) stay cheap by default.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import IO, List, Optional, Union

from repro.errors import ArtifactError

__all__ = ["EventSink", "LOG_LEVELS", "read_jsonl"]

#: Recognised levels, least to most severe.
LOG_LEVELS = ("debug", "info", "warn")

_LEVEL_RANK = {name: rank for rank, name in enumerate(LOG_LEVELS)}


def read_jsonl(path: Union[str, Path]) -> List[dict]:
    """The records of a JSONL artifact, blank lines skipped.  A line that
    is not JSON raises :class:`ArtifactError` naming the file and line."""
    records = []
    for number, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise ArtifactError(f"{path}: line {number} is not JSON ({exc.msg})") from None
    return records


class EventSink:
    """Writes structured events to a JSONL file, filtered by level."""

    def __init__(
        self,
        path: Union[str, Path],
        level: str = "info",
        start_time: Optional[float] = None,
    ) -> None:
        if level not in _LEVEL_RANK:
            raise ValueError(f"unknown log level {level!r}; choose from {LOG_LEVELS}")
        self.path = Path(path)
        self.level = level
        self._threshold = _LEVEL_RANK[level]
        self._start = time.time() if start_time is None else start_time
        self._handle: Optional[IO[str]] = None
        self.events_written = 0

    def wants(self, level: str) -> bool:
        """Whether events at ``level`` pass the configured filter."""
        return _LEVEL_RANK.get(level, 1) >= self._threshold

    def emit(self, kind: str, name: str, level: str = "info", **fields) -> None:
        """Write one event line (no-op when below the level threshold)."""
        if not self.wants(level):
            return
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            # Line-buffered: an event is on disk once emitted.
            self._handle = self.path.open("a", encoding="utf-8", buffering=1)
        record = {
            "t": round(time.time() - self._start, 6),
            "level": level,
            "kind": kind,
            "name": name,
        }
        record.update(fields)
        self._handle.write(json.dumps(record, sort_keys=False, default=str) + "\n")
        self.events_written += 1

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
