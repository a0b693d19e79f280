"""The unified repro report: one run directory, one rendered story.

``repro report`` joins the three observability artifacts a run leaves
behind — ``run_manifest.json`` (what ran), ``telemetry.jsonl`` (how the
subsystems behaved over time), ``traces.jsonl`` (why, causally) — into
a single terminal report:

- **subsystem timelines** — every telemetry series, grouped by its
  subsystem prefix (the part of the name before the first dot:
  ``control.*``, ``net.*``, ``engine.*``, ``runtime.*``) and rendered
  as an ASCII sparkline over the run's time axis;
- **self-time profile** — per span *name*, how much wall/virtual time
  was spent in spans of that name minus their children (the classic
  profile view, computed from the reconstructed trees of
  :func:`repro.obs.trace_analysis.build_trees`);
- **critical path** — the longest root-to-leaf span chain of the
  longest trace, phase by phase;
- **flamegraph export** — the merged span trees as a nested
  ``{name, value, children}`` JSON document, the format d3-flamegraph
  style renderers consume.

Cross-process runs (``serve`` + ``dial``) each write their own
``traces.jsonl``; pass the extra files and
:func:`repro.obs.trace.load_trace_files` merges them into one causal
record set before analysis, stitching the remote continuation spans
back under their callers.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import ArtifactError
from repro.obs.manifest import MANIFEST_FILENAME, read_manifest, validate_manifest
from repro.obs.timeseries import TELEMETRY_FILENAME, load_telemetry_file
from repro.obs.trace import TRACES_FILENAME, load_trace_files
from repro.obs.trace_analysis import TraceNode, TraceTree, build_trees

__all__ = [
    "RunArtifacts",
    "critical_path",
    "flame_document",
    "load_run",
    "render_report",
    "self_time_profile",
    "series_by_subsystem",
    "sparkline",
    "write_flame",
]

_BLOCKS = " ▁▂▃▄▅▆▇█"


class RunArtifacts:
    """Everything one run directory holds, loaded and parsed."""

    def __init__(
        self,
        run_dir: Path,
        manifest: Optional[dict],
        telemetry: List[dict],
        traces: List[dict],
        trace_files: List[Path],
    ) -> None:
        self.run_dir = run_dir
        self.manifest = manifest
        self.telemetry = telemetry
        self.traces = traces
        self.trace_files = trace_files


def load_run(
    run_dir: Union[str, Path],
    extra_traces: Sequence[Union[str, Path]] = (),
) -> RunArtifacts:
    """Load a run directory's manifest + telemetry + (merged) traces.

    Every artifact is optional — a run without ``--trace`` has no
    traces.jsonl; the report renders whatever exists — but a directory
    holding none of them raises :class:`ArtifactError`.  The manifest is
    read unvalidated (:func:`render_report` names its problems), so a run
    directory from before a schema bump still renders.  ``extra_traces``
    are additional trace files (e.g. the ``serve`` side of a
    cross-process run) merged with the run's own before analysis.
    """
    run_dir = Path(run_dir)
    if not run_dir.is_dir():
        raise FileNotFoundError(f"run directory {run_dir} does not exist")
    manifest: Optional[dict] = None
    manifest_path = run_dir / MANIFEST_FILENAME
    if manifest_path.is_file():
        manifest = read_manifest(manifest_path)
    telemetry: List[dict] = []
    telemetry_path = run_dir / TELEMETRY_FILENAME
    if telemetry_path.is_file():
        telemetry = load_telemetry_file(telemetry_path)
    trace_files: List[Path] = []
    own_traces = run_dir / TRACES_FILENAME
    if own_traces.is_file():
        trace_files.append(own_traces)
    trace_files.extend(Path(p) for p in extra_traces)
    if manifest is None and not telemetry_path.is_file() and not trace_files:
        raise ArtifactError(
            f"run directory {run_dir} holds no {MANIFEST_FILENAME} "
            f"(nor {TELEMETRY_FILENAME} or {TRACES_FILENAME})"
        )
    traces: List[dict] = []
    if trace_files:
        traces = load_trace_files(trace_files)
    return RunArtifacts(run_dir, manifest, telemetry, traces, trace_files)


# -- telemetry timelines -----------------------------------------------------


def series_by_subsystem(
    records: Sequence[dict],
) -> Dict[str, Dict[str, List[Tuple[float, float]]]]:
    """Group telemetry samples: subsystem -> series label -> points.

    The subsystem is the series-name prefix before the first dot;
    tagged series get one timeline per distinct tag set (the label
    carries the tags, e.g. ``control.shard_registrations{shard=0}``).
    """
    grouped: Dict[str, Dict[str, List[Tuple[float, float]]]] = {}
    for record in records:
        if record.get("kind") != "sample":
            continue
        value = record.get("value")
        if not isinstance(value, (int, float)):
            continue
        series = record["series"]
        subsystem = series.partition(".")[0]
        tags = record.get("tags")
        label = series
        if tags:
            inner = ",".join(f"{k}={v}" for k, v in sorted(tags.items()))
            label = f"{series}{{{inner}}}"
        grouped.setdefault(subsystem, {}).setdefault(label, []).append(
            (record["t_ms"], float(value))
        )
    return grouped


def sparkline(points: Sequence[Tuple[float, float]], width: int = 48) -> str:
    """Render (t, value) points as a fixed-width ASCII sparkline.

    The time axis is divided into ``width`` equal buckets; each bucket
    shows the last value that landed in it (empty buckets carry the
    previous level forward, so a step series reads as a step).
    """
    if not points:
        return " " * width
    t0 = points[0][0]
    t1 = points[-1][0]
    span = t1 - t0
    buckets: List[Optional[float]] = [None] * width
    for t, value in points:
        slot = int((t - t0) / span * (width - 1)) if span > 0 else 0
        buckets[slot] = value
    values = [v for v in buckets if v is not None]
    lo, hi = min(values), max(values)
    scale = hi - lo
    out: List[str] = []
    level: Optional[float] = None
    for bucket in buckets:
        if bucket is not None:
            level = bucket
        if level is None:
            out.append(" ")
        elif scale <= 0:
            out.append(_BLOCKS[4])
        else:
            index = 1 + int((level - lo) / scale * (len(_BLOCKS) - 2))
            out.append(_BLOCKS[min(index, len(_BLOCKS) - 1)])
    return "".join(out)


def _fmt_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.4g}"


# -- trace profile -----------------------------------------------------------


def _span_children_ms(node: TraceNode) -> float:
    return sum(
        child.duration_ms for child in node.children if child.kind == "span"
    )


def self_time_profile(trees: Dict[str, TraceTree]) -> List[dict]:
    """Per span-name totals: count, total time, self time (no children).

    Sorted by self time descending — the profile view of where a run's
    (virtual or wall) time actually went.
    """
    profile: Dict[str, dict] = {}
    stack: List[TraceNode] = []
    for tree in trees.values():
        stack.extend(node for node in ([tree.root] if tree.root else []))
        stack.extend(tree.orphans)
    while stack:
        node = stack.pop()
        stack.extend(node.children)
        if node.kind != "span":
            continue
        row = profile.setdefault(
            node.name, {"name": node.name, "count": 0, "total_ms": 0.0, "self_ms": 0.0}
        )
        row["count"] += 1
        row["total_ms"] += node.duration_ms
        row["self_ms"] += max(0.0, node.duration_ms - _span_children_ms(node))
    rows = sorted(profile.values(), key=lambda r: (-r["self_ms"], r["name"]))
    for row in rows:
        row["total_ms"] = round(row["total_ms"], 3)
        row["self_ms"] = round(row["self_ms"], 3)
    return rows


def critical_path(tree: TraceTree) -> List[dict]:
    """The root-to-leaf chain of spans that gated this trace's end.

    At every level descend into the child span whose *end* is latest
    (ties: longest duration) — the span still running when its parent
    finished is the one that gated it.
    """
    path: List[dict] = []
    node = tree.root
    while node is not None:
        path.append(
            {
                "name": node.name,
                "start_ms": round(node.start_ms, 3),
                "end_ms": round(node.end_ms, 3),
                "duration_ms": round(node.duration_ms, 3),
            }
        )
        spans = [child for child in node.children if child.kind == "span"]
        node = (
            max(spans, key=lambda c: (c.end_ms, c.duration_ms)) if spans else None
        )
    return path


def flame_document(trees: Dict[str, TraceTree]) -> dict:
    """The merged span forest as a nested flamegraph JSON document.

    Same-named siblings merge (their values add), exactly like folded
    flamegraph stacks; ``value`` is total milliseconds in that frame.
    """

    def build(name: str, nodes: List[TraceNode]) -> dict:
        children: Dict[str, List[TraceNode]] = {}
        total = 0.0
        for node in nodes:
            total += node.duration_ms
            for child in node.children:
                if child.kind == "span":
                    children.setdefault(child.name, []).append(child)
        frame = {"name": name, "value": round(total, 3)}
        if children:
            frame["children"] = [
                build(child_name, group)
                for child_name, group in sorted(children.items())
            ]
        return frame

    roots: Dict[str, List[TraceNode]] = {}
    for tree in trees.values():
        if tree.root is not None:
            roots.setdefault(tree.root.name, []).append(tree.root)
    return {
        "name": "run",
        "value": round(
            sum(t.root.duration_ms for t in trees.values() if t.root), 3
        ),
        "children": [build(name, group) for name, group in sorted(roots.items())],
    }


# -- rendering ---------------------------------------------------------------


def render_report(
    artifacts: RunArtifacts,
    *,
    width: int = 48,
    max_series: int = 40,
    profile_rows: int = 15,
) -> List[str]:
    """The full terminal report, as a list of printable lines."""
    lines: List[str] = [f"run report: {artifacts.run_dir}"]

    manifest = artifacts.manifest
    if manifest is not None:
        problems = validate_manifest(manifest)
        status = "valid" if not problems else f"INVALID ({'; '.join(problems)})"
        lines.append(
            f"  manifest: schema {manifest.get('schema')} "
            f"command={manifest.get('command')!r} ({status})"
        )
        telemetry_block = manifest.get("telemetry")
        if telemetry_block:
            lines.append(
                f"  telemetry: {telemetry_block.get('samples')} samples, "
                f"{telemetry_block.get('series')} series, "
                f"cadence {telemetry_block.get('cadence_ms')} ms, "
                f"{telemetry_block.get('samples_dropped')} dropped"
            )
    else:
        lines.append("  manifest: (none)")

    grouped = series_by_subsystem(artifacts.telemetry)
    if grouped:
        lines.append("")
        lines.append(f"subsystem timelines ({len(grouped)} subsystems):")
        emitted = 0
        for subsystem in sorted(grouped):
            lines.append(f"  [{subsystem}]")
            for label in sorted(grouped[subsystem]):
                if emitted >= max_series:
                    lines.append(f"  … truncated at {max_series} series")
                    break
                points = grouped[subsystem][label]
                last = points[-1][1]
                lines.append(
                    f"    {label:<44} {sparkline(points, width)} "
                    f"last={_fmt_value(last)} n={len(points)}"
                )
                emitted += 1
            if emitted >= max_series:
                break
    elif artifacts.telemetry:
        lines.append("  telemetry: header only (no samples)")

    if artifacts.traces:
        trees = build_trees(artifacts.traces)
        lines.append("")
        lines.append(
            f"traces: {len(trees)} trace trees from "
            f"{len(artifacts.trace_files)} file(s)"
        )
        profile = self_time_profile(trees)
        if profile:
            lines.append("  self-time profile (per span kind):")
            lines.append(
                f"    {'span':<28} {'count':>6} {'total ms':>12} {'self ms':>12}"
            )
            for row in profile[:profile_rows]:
                lines.append(
                    f"    {row['name']:<28} {row['count']:>6} "
                    f"{row['total_ms']:>12.1f} {row['self_ms']:>12.1f}"
                )
        rooted = [t for t in trees.values() if t.root is not None]
        if rooted:
            longest = max(rooted, key=lambda t: t.root.duration_ms)
            path = critical_path(longest)
            lines.append(
                f"  critical path ({longest.name} [{longest.trace_id}], "
                f"{path[0]['duration_ms']:.1f} ms):"
            )
            for step in path:
                lines.append(
                    f"    @{step['start_ms']:>10.1f}  {step['name']} "
                    f"[{step['duration_ms']:.1f} ms]"
                )
    return lines


def write_flame(
    artifacts: RunArtifacts, path: Union[str, Path]
) -> Tuple[Path, int]:
    """Write the flamegraph JSON export; returns (path, frame count)."""
    trees = build_trees(artifacts.traces)
    document = flame_document(trees)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(document, sort_keys=True, separators=(",", ":")) + "\n",
        encoding="utf-8",
    )

    def count(frame: dict) -> int:
        return 1 + sum(count(child) for child in frame.get("children", ()))

    return path, count(document)
