"""Per-call causal tracing: propagated contexts and ``traces.jsonl``.

The run-wide metrics of :mod:`repro.obs` answer *how much* (probe
totals, setup-time histograms); they cannot answer the paper's Section 5
questions, which are *per-call causal*: where did **this** call's setup
time go, which AS absorbed **its** probes, how often did **its** relay
bounce.  This module adds the missing layer: a :class:`Tracer` that
threads a trace context through the runtime's state machines and writes
one schema-versioned JSON line per finished span or point event to
``traces.jsonl`` beside the run manifest.

**Deterministic by construction.**  Identifiers derive from simulated
time and per-run sequence counters — never wall clock, PIDs or random
state — and every timestamp in a record is simulated milliseconds.  Two
runs with the same seeds therefore produce byte-identical trace files
(chaos CI diffs them), and enabling tracing never perturbs results: the
tracer only observes.

**Off by default, free when off.**  Instrumented code holds a
:class:`TraceSpan`; with no active tracer it holds the shared
:data:`NULL_TRACE_SPAN`, which is falsy and whose ``child``/``point``/
``end`` are no-ops, so propagation costs an attribute call and a truth
test.  Activate through ``obs.observe(trace=True)`` or the CLI's
``--trace`` flag.

The record vocabulary (one JSON object per line):

- line 1 — header: ``{"kind": "header", "schema": 1}``;
- spans — ``{"kind": "span", "trace": …, "span": …, "parent": …,
  "name": …, "start_ms": …, "end_ms": …, "attrs": {…}}`` — emitted when
  the span *ends*, so a parent may appear after its children;
- points — like spans but with a single ``at_ms`` timestamp.

:func:`validate_trace_records` checks structure and referential
integrity (every ``parent`` resolves to a span of the same trace);
:func:`load_trace_file` reads and validates a file in one step.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO, Callable, Dict, List, Optional, Union

from repro.errors import ArtifactError

__all__ = [
    "NULL_TRACER",
    "NULL_TRACE_SPAN",
    "TRACES_FILENAME",
    "TRACE_SCHEMA_VERSION",
    "Tracer",
    "TraceSpan",
    "load_trace_file",
    "load_trace_files",
    "validate_trace_records",
]

#: Bump when trace-record semantics change; validators reject others.
TRACE_SCHEMA_VERSION = 1

#: Canonical trace file name inside an observability directory.
TRACES_FILENAME = "traces.jsonl"


def _json_line(record: dict) -> str:
    """Canonical byte-stable serialization of one trace record."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"), default=str)


class TraceSpan:
    """One live span of a trace; the unit of context propagation.

    Created through :meth:`Tracer.begin` (roots) or :meth:`child`; the
    record is emitted when :meth:`end` is called.  A span that is never
    ended is never written — the analyzer treats absence as "the run
    stopped before this completed".
    """

    __slots__ = ("_tracer", "trace_id", "span_id", "parent_id", "name",
                 "start_ms", "attrs", "ended", "remote")

    def __init__(
        self,
        tracer: "Tracer",
        trace_id: str,
        span_id: str,
        parent_id: Optional[str],
        name: str,
        start_ms: float,
        attrs: dict,
        remote: bool = False,
    ) -> None:
        self._tracer = tracer
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start_ms = start_ms
        self.attrs = attrs
        self.ended = False
        self.remote = remote

    def __bool__(self) -> bool:
        return True

    def child(self, name: str, at_ms: float, **attrs) -> "TraceSpan":
        """Open a child span of this one (same trace)."""
        return self._tracer._span(self.trace_id, self.span_id, name, at_ms, attrs)

    def point(self, name: str, at_ms: float, **attrs) -> None:
        """Emit an instantaneous event parented to this span."""
        self._tracer._emit({
            "kind": "point",
            "trace": self.trace_id,
            "span": self._tracer._next_span_id(),
            "parent": self.span_id,
            "name": name,
            "at_ms": round(at_ms, 3),
            "attrs": attrs,
        })

    def end(self, at_ms: float, **attrs) -> None:
        """Close the span; merges ``attrs`` and writes the record."""
        if self.ended:
            return
        self.ended = True
        merged = dict(self.attrs)
        merged.update(attrs)
        record = {
            "kind": "span",
            "trace": self.trace_id,
            "span": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "start_ms": round(self.start_ms, 3),
            "end_ms": round(at_ms, 3),
            "attrs": merged,
        }
        if self.remote:
            # The parent span lives in another process's trace file; the
            # validator only checks its trace ownership once the files
            # are merged (see load_trace_files).
            record["remote"] = True
        self._tracer._emit(record)


class _NullTraceSpan:
    """The span held when tracing is off: falsy, every method free."""

    __slots__ = ()

    trace_id = None
    span_id = None
    parent_id = None
    ended = True

    def __bool__(self) -> bool:
        return False

    def child(self, name: str, at_ms: float = 0.0, **attrs) -> "_NullTraceSpan":
        return self

    def point(self, name: str, at_ms: float = 0.0, **attrs) -> None:
        pass

    def end(self, at_ms: float = 0.0, **attrs) -> None:
        pass


#: Shared no-op span (stateless; safe to hold, propagate and "end").
NULL_TRACE_SPAN = _NullTraceSpan()


class _Scope:
    """Context manager swapping the tracer's ambient parent span."""

    __slots__ = ("_tracer", "_span", "_previous")

    def __init__(self, tracer: "Tracer", span) -> None:
        self._tracer = tracer
        self._span = span
        self._previous = None

    def __enter__(self):
        self._previous = self._tracer._ambient
        self._tracer._ambient = self._span
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._tracer._ambient = self._previous
        return False


class Tracer:
    """Owns trace identifiers and the ``traces.jsonl`` stream.

    ``clock`` supplies the *current simulated time* for instrumentation
    sites that have no simulator handle of their own (close-set builds
    triggered mid-call); whoever drives a simulator points it at
    ``sim.now_ms`` while running.  It must never be wall clock.
    """

    def __init__(self, path: Optional[Union[str, Path]] = None) -> None:
        self.path = Path(path) if path is not None else None
        self.records: List[dict] = []
        self.records_written = 0
        self.clock: Callable[[], float] = lambda: 0.0
        self.node = ""
        self._trace_seq = 0
        self._span_seq = 0
        self._ambient = None
        self._handle: Optional[IO[str]] = None
        self._emit({"kind": "header", "schema": TRACE_SCHEMA_VERSION})

    def set_node(self, node: str) -> None:
        """Prefix span ids with a per-process node tag.

        Cross-process runs (``serve`` in one process, ``dial`` in
        another) each own an independent span-id sequence; distinct node
        prefixes keep ids unique when the files are merged into one
        causal tree by :func:`load_trace_files`.
        """
        self.node = f"{node}-" if node else ""

    def __bool__(self) -> bool:
        return True

    # -- context -----------------------------------------------------------

    def now(self) -> float:
        """The current simulated time according to :attr:`clock`."""
        return self.clock()

    @property
    def active(self):
        """The ambient parent span set by :meth:`scope` (or the no-op)."""
        ambient = self._ambient
        return ambient if ambient is not None else NULL_TRACE_SPAN

    def scope(self, span) -> _Scope:
        """Make ``span`` the ambient parent for nested instrumentation.

        Used where explicit propagation would mean threading a span
        through many analytic call layers (close-set construction under
        relay selection)::

            with tracer.scope(select_span):
                ...  # close_set.build spans parent to select_span
        """
        return _Scope(self, span)

    # -- span creation -----------------------------------------------------

    def begin(self, name: str, at_ms: float, **attrs) -> TraceSpan:
        """Open a new root span (a fresh ``trace_id``).

        The trace id embeds the start time (simulated µs) and a per-run
        sequence number, so ids are unique, ordered and byte-stable.
        """
        self._trace_seq += 1
        trace_id = f"{self.node}{self._trace_seq:04x}.{int(round(at_ms * 1000)):x}"
        return self._span(trace_id, None, name, at_ms, attrs)

    def continue_trace(
        self, trace_id: str, parent_span_id: Optional[str], name: str,
        at_ms: float, **attrs,
    ) -> TraceSpan:
        """Open a span continuing a trace begun in *another* process.

        The context (trace id + parent span id) arrived over the wire
        (see the codec's trace extension); the resulting span joins the
        remote trace and is flagged ``remote`` so single-file validation
        does not demand the foreign parent be present locally.
        """
        return TraceSpan(
            self, trace_id, self._next_span_id(), parent_span_id, name,
            at_ms, attrs, remote=True,
        )

    def _span(
        self, trace_id: str, parent_id: Optional[str], name: str,
        at_ms: float, attrs: dict,
    ) -> TraceSpan:
        return TraceSpan(
            self, trace_id, self._next_span_id(), parent_id, name, at_ms, attrs
        )

    def _next_span_id(self) -> str:
        self._span_seq += 1
        return f"{self.node}{self._span_seq:06x}"

    # -- emission ----------------------------------------------------------

    def _emit(self, record: dict) -> None:
        self.records.append(record)
        self.records_written += 1
        if self.path is None:
            return
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = self.path.open("w", encoding="utf-8")
        self._handle.write(_json_line(record) + "\n")

    def flush(self) -> None:
        """Push buffered lines to disk (the file stays open)."""
        if self._handle is not None:
            self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


class _NullTracer:
    """Stand-in when no tracing run is active: falsy, everything free.

    No ``__slots__``: :class:`_Scope` writes ``_ambient`` even over the
    null tracer, and a scoped span over a dead tracer should stay inert.
    """

    path = None
    records: List[dict] = []
    records_written = 0
    _ambient = None
    clock: Callable[[], float] = staticmethod(lambda: 0.0)

    def __bool__(self) -> bool:
        return False

    def now(self) -> float:
        return 0.0

    @property
    def active(self) -> _NullTraceSpan:
        return NULL_TRACE_SPAN

    def scope(self, span) -> _Scope:
        return _Scope(self, span)

    def begin(self, name: str, at_ms: float, **attrs) -> _NullTraceSpan:
        return NULL_TRACE_SPAN

    def continue_trace(
        self, trace_id, parent_span_id, name, at_ms: float, **attrs
    ) -> _NullTraceSpan:
        return NULL_TRACE_SPAN

    def set_node(self, node: str) -> None:
        pass

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


#: Shared no-op tracer returned by ``obs.tracer()`` when tracing is off.
NULL_TRACER = _NullTracer()


# -- validation and loading --------------------------------------------------

_SPAN_FIELDS = {
    "kind": str, "trace": str, "span": str, "name": str, "attrs": dict,
    "start_ms": (int, float), "end_ms": (int, float),
}
_POINT_FIELDS = {
    "kind": str, "trace": str, "span": str, "name": str, "attrs": dict,
    "at_ms": (int, float),
}


def validate_trace_records(records: List[dict]) -> List[str]:
    """Check a sequence of trace records against the schema.

    Returns human-readable problems (empty list = valid): header first,
    field shapes per kind, unique span ids, and referential integrity —
    every ``parent`` must name a span record of the same trace.
    """
    problems: List[str] = []
    if not records:
        return ["empty trace: missing header record"]
    header = records[0]
    if not isinstance(header, dict) or header.get("kind") != "header":
        problems.append("first record must be the header")
    elif header.get("schema") != TRACE_SCHEMA_VERSION:
        problems.append(
            f"schema must be {TRACE_SCHEMA_VERSION}, got {header.get('schema')!r}"
        )
    body = records[1:] if isinstance(header, dict) and header.get("kind") == "header" else records

    span_trace: Dict[str, str] = {}
    seen_ids: set = set()
    for index, record in enumerate(body):
        where = f"record {index + 1}"
        if not isinstance(record, dict):
            problems.append(f"{where}: not an object")
            continue
        kind = record.get("kind")
        if kind not in ("span", "point"):
            problems.append(f"{where}: unknown kind {kind!r}")
            continue
        fields = _SPAN_FIELDS if kind == "span" else _POINT_FIELDS
        for name, types in fields.items():
            if name not in record:
                problems.append(f"{where}: missing field {name!r}")
            elif not isinstance(record[name], types):
                problems.append(f"{where}: field {name!r} has wrong type")
        extra = set(record) - set(fields) - {"parent", "remote"}
        if extra:
            problems.append(f"{where}: unknown fields {sorted(extra)}")
        if "remote" in record and not isinstance(record["remote"], bool):
            problems.append(f"{where}: field 'remote' must be a boolean")
        parent = record.get("parent")
        if parent is not None and not isinstance(parent, str):
            problems.append(f"{where}: field 'parent' must be a string or null")
        span_id = record.get("span")
        if isinstance(span_id, str):
            if span_id in seen_ids:
                problems.append(f"{where}: duplicate span id {span_id!r}")
            seen_ids.add(span_id)
            if kind == "span" and isinstance(record.get("trace"), str):
                span_trace[span_id] = record["trace"]
        if kind == "span":
            start, end = record.get("start_ms"), record.get("end_ms")
            if (
                isinstance(start, (int, float))
                and isinstance(end, (int, float))
                and end < start
            ):
                problems.append(f"{where}: end_ms {end} before start_ms {start}")

    # Referential integrity (spans are emitted at end time, so parents
    # may legitimately appear after their children — hence two passes).
    for index, record in enumerate(body):
        if not isinstance(record, dict):
            continue
        parent = record.get("parent")
        if parent is None or not isinstance(parent, str):
            continue
        where = f"record {index + 1}"
        owner = span_trace.get(parent)
        if owner is None:
            if record.get("remote"):
                # A continuation span: its parent lives in the peer
                # process's file.  Merging the files (load_trace_files)
                # restores the full referential check.
                continue
            problems.append(f"{where}: parent {parent!r} is not a recorded span")
        elif owner != record.get("trace"):
            problems.append(
                f"{where}: parent {parent!r} belongs to trace {owner!r}, "
                f"not {record.get('trace')!r}"
            )
    return problems


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


def load_trace_file(path: Union[str, Path]) -> List[dict]:
    """Read and validate ``traces.jsonl``; returns the record list."""
    records = read_jsonl(path)
    problems = validate_trace_records(records)
    if problems:
        raise ArtifactError(f"invalid trace file {path}: " + "; ".join(problems[:5]))
    return records


def load_trace_files(paths: List[Union[str, Path]]) -> List[dict]:
    """Merge several processes' trace files into one validated record set.

    A cross-process run (``serve`` + ``dial``) writes one file per
    process; wire-propagated trace contexts mean a span's parent may be
    recorded in a *different* file.  This reads every file, keeps a
    single header, concatenates the bodies in argument order, and
    validates the merged whole — so referential integrity is checked
    across process boundaries, yielding one connected causal tree.
    """
    if not paths:
        raise ValueError("load_trace_files needs at least one path")
    merged: List[dict] = []
    for path in paths:
        records = read_jsonl(path)
        header = records[0] if records else None
        if not isinstance(header, dict) or header.get("kind") != "header":
            raise ArtifactError(f"invalid trace file {path}: missing header record")
        if header.get("schema") != TRACE_SCHEMA_VERSION:
            raise ArtifactError(
                f"invalid trace file {path}: schema "
                f"{header.get('schema')!r} != {TRACE_SCHEMA_VERSION}"
            )
        if not merged:
            merged.append(header)
        merged.extend(records[1:])
    problems = validate_trace_records(merged)
    if problems:
        raise ArtifactError(
            "invalid merged trace set: " + "; ".join(problems[:5])
        )
    return merged
