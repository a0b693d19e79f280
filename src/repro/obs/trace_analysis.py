"""Trace analysis: per-call timelines and the L1–L4 report from traces.

Everything here consumes only the records of a ``traces.jsonl`` file
(:func:`repro.obs.trace.load_trace_file`) — never live runtime state —
so the analysis works on any captured trace, the same way the paper's
Skype study worked on packet captures.  Three layers:

- **reconstruction** — :func:`build_trees` turns the flat record stream
  back into per-trace span trees (spans are emitted at *end* time, so
  children routinely precede their parents in the file);
- **per-call analysis** — :func:`analyze_calls` /
  :func:`analyze_skype_calls` distil each ASAP call (setup critical
  path, relay-pick quality, failover history) and each Skype-like
  session (probe volume, bounce count, stabilization) into flat
  summaries; :func:`fault_links` indexes injected faults by the traces
  they disrupted;
- **aggregation** — :func:`limits_report` compares the two protocols on
  the paper's four Skype limits: L1 suboptimal relay paths (chosen vs
  best-available RTT gap), L2 redundant same-AS probes, L3 slow
  stabilization and relay bounce, L4 probe-message overhead —
  :func:`render_timeline` renders one call's reconstructed history as
  indented text.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = [
    "CallSummary",
    "LimitsReport",
    "SkypeDirectionSummary",
    "SkypeSummary",
    "TraceNode",
    "TraceTree",
    "analyze_calls",
    "analyze_skype_calls",
    "build_trees",
    "call_trees",
    "fault_links",
    "limits_report",
    "probe_messages_by_as",
    "relay_losses",
    "render_timeline",
]


# -- reconstruction ----------------------------------------------------------


@dataclass
class TraceNode:
    """One span or point record with its reconstructed children."""

    record: dict
    children: List["TraceNode"] = field(default_factory=list)

    @property
    def kind(self) -> str:
        return self.record["kind"]

    @property
    def name(self) -> str:
        return self.record["name"]

    @property
    def attrs(self) -> dict:
        return self.record.get("attrs", {})

    @property
    def start_ms(self) -> float:
        if self.kind == "point":
            return self.record["at_ms"]
        return self.record["start_ms"]

    @property
    def end_ms(self) -> float:
        if self.kind == "point":
            return self.record["at_ms"]
        return self.record["end_ms"]

    @property
    def duration_ms(self) -> float:
        return self.end_ms - self.start_ms

    def find(self, name: str) -> List["TraceNode"]:
        """All descendants (and self) with the given span/point name."""
        found = [self] if self.name == name else []
        for child in self.children:
            found.extend(child.find(name))
        return found

    def first(self, name: str) -> Optional["TraceNode"]:
        nodes = self.find(name)
        return nodes[0] if nodes else None


@dataclass
class TraceTree:
    """One reconstructed trace: a root span plus any orphaned records."""

    trace_id: str
    root: Optional[TraceNode] = None
    #: Records whose parent span never ended (run stopped mid-flight).
    orphans: List[TraceNode] = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.root.name if self.root is not None else "?"


def build_trees(records: List[dict]) -> Dict[str, TraceTree]:
    """Reconstruct span trees per trace, in first-appearance order.

    Two passes because spans are written at end time: children of a
    long-lived span appear in the file before their parent does.
    """
    nodes: Dict[str, TraceNode] = {}
    ordered: List[dict] = []
    for record in records:
        if record.get("kind") not in ("span", "point"):
            continue
        ordered.append(record)
        nodes[record["span"]] = TraceNode(record)

    trees: Dict[str, TraceTree] = {}
    for record in ordered:
        trace_id = record["trace"]
        tree = trees.get(trace_id)
        if tree is None:
            tree = trees[trace_id] = TraceTree(trace_id=trace_id)
        node = nodes[record["span"]]
        parent_id = record.get("parent")
        if parent_id is None:
            tree.root = node
        elif parent_id in nodes:
            nodes[parent_id].children.append(node)
        else:
            tree.orphans.append(node)
    for node in nodes.values():
        node.children.sort(key=lambda n: (n.start_ms, n.record["span"]))
    return trees


# -- per-call analysis -------------------------------------------------------


@dataclass
class CallSummary:
    """One ASAP call distilled from its trace."""

    trace_id: str
    caller: str
    callee: str
    outcome: str
    setup_ms: Optional[float]
    path: Optional[str]
    relay: Optional[str]
    chosen_rtt_ms: Optional[float]
    best_candidate_rtt_ms: Optional[float]
    direct_rtt_ms: Optional[float]
    failovers: int
    relay_losses: int
    #: Probe messages by AS from close-set builds nested under the call.
    probes_by_as: Dict[str, int] = field(default_factory=dict)
    probe_messages: int = 0
    #: Probes beyond the first into one AS *within a single build* (L2);
    #: cross-build repeats are amortized maintenance, not redundancy.
    same_as_duplicate_probes: int = 0

    @property
    def relay_gap_ms(self) -> Optional[float]:
        """L1: chosen relay path vs the best candidate that was known."""
        if self.chosen_rtt_ms is None or self.best_candidate_rtt_ms is None:
            return None
        return max(0.0, self.chosen_rtt_ms - self.best_candidate_rtt_ms)


def analyze_calls(trees: Dict[str, TraceTree]) -> List[CallSummary]:
    """One :class:`CallSummary` per complete ASAP ``call`` trace."""
    summaries: List[CallSummary] = []
    for tree in trees.values():
        root = tree.root
        if root is None or root.name != "call":
            continue
        pick = root.first("setup.relay_pick")
        done = root.first("setup.done")
        media_spans = root.find("media")
        media = media_spans[0] if media_spans else None
        probes_by_as: Dict[str, int] = {}
        probe_messages = 0
        duplicates = 0
        for build in root.find("close_set.build"):
            probe_messages += build.attrs.get("probe_messages", 0)
            for asn, count in build.attrs.get("probes_by_as", {}).items():
                probes_by_as[asn] = probes_by_as.get(asn, 0) + count
                if count > 2:  # two messages per probe
                    duplicates += count // 2 - 1
        summaries.append(
            CallSummary(
                trace_id=tree.trace_id,
                caller=root.attrs.get("caller", "?"),
                callee=root.attrs.get("callee", "?"),
                outcome=root.attrs.get("outcome", "pending"),
                setup_ms=done.attrs.get("setup_ms") if done is not None else None,
                path=done.attrs.get("path") if done is not None else None,
                relay=done.attrs.get("relay") if done is not None else None,
                chosen_rtt_ms=pick.attrs.get("chosen_rtt_ms") if pick else None,
                best_candidate_rtt_ms=(
                    pick.attrs.get("best_candidate_rtt_ms") if pick else None
                ),
                direct_rtt_ms=pick.attrs.get("direct_rtt_ms") if pick else None,
                failovers=(
                    media.attrs.get("failovers", 0) if media is not None
                    else 0
                ),
                relay_losses=len(root.find("media.relay_lost")),
                probes_by_as=probes_by_as,
                probe_messages=probe_messages,
                same_as_duplicate_probes=duplicates,
            )
        )
    return summaries


@dataclass
class SkypeDirectionSummary:
    """One direction of a Skype-like session."""

    direction: str
    probes: int
    bounces: int
    stabilized_ms: Optional[float]
    final_rtt_ms: Optional[float]
    best_path_rtt_ms: Optional[float]
    same_as_duplicate_probes: int
    probes_by_as: Dict[str, int] = field(default_factory=dict)

    @property
    def relay_gap_ms(self) -> Optional[float]:
        """L1: the path kept at session end vs the best one ever probed."""
        if self.final_rtt_ms is None or self.best_path_rtt_ms is None:
            return None
        return max(0.0, self.final_rtt_ms - self.best_path_rtt_ms)


@dataclass
class SkypeSummary:
    """One Skype-like session distilled from its trace."""

    trace_id: str
    session_id: int
    caller: str
    callee: str
    direct_rtt_ms: Optional[float]
    directions: List[SkypeDirectionSummary] = field(default_factory=list)

    @property
    def bounces(self) -> int:
        return sum(d.bounces for d in self.directions)

    @property
    def stabilized_ms(self) -> Optional[float]:
        values = [d.stabilized_ms for d in self.directions if d.stabilized_ms is not None]
        return max(values) if values else None


def analyze_skype_calls(trees: Dict[str, TraceTree]) -> List[SkypeSummary]:
    """One :class:`SkypeSummary` per ``skype.call`` trace."""
    summaries: List[SkypeSummary] = []
    for tree in trees.values():
        root = tree.root
        if root is None or root.name != "skype.call":
            continue
        direct = root.attrs.get("direct_rtt_ms")
        summary = SkypeSummary(
            trace_id=tree.trace_id,
            session_id=root.attrs.get("session_id", -1),
            caller=root.attrs.get("caller", "?"),
            callee=root.attrs.get("callee", "?"),
            direct_rtt_ms=direct,
        )
        for direction in root.find("skype.direction"):
            probes = direction.find("skype.probe")
            by_as: Dict[str, int] = {}
            best: Optional[float] = direct
            for probe in probes:
                asn = str(probe.attrs.get("relay_as"))
                by_as[asn] = by_as.get(asn, 0) + 1
                rtt = probe.attrs.get("path_rtt_ms")
                if rtt is not None and (best is None or rtt < best):
                    best = rtt
            summary.directions.append(
                SkypeDirectionSummary(
                    direction=direction.attrs.get("direction", "?"),
                    probes=len(probes),
                    bounces=direction.attrs.get("bounces", 0),
                    stabilized_ms=direction.attrs.get("stabilized_ms"),
                    final_rtt_ms=direction.attrs.get("final_rtt_ms"),
                    best_path_rtt_ms=best,
                    same_as_duplicate_probes=sum(
                        n - 1 for n in by_as.values() if n > 1
                    ),
                    probes_by_as=by_as,
                )
            )
        summaries.append(summary)
    return summaries


def call_trees(trees: Dict[str, TraceTree]) -> List[TraceTree]:
    """The ASAP call traces, in file order."""
    return [tree for tree in trees.values() if tree.name == "call"]


def relay_losses(tree: TraceTree) -> int:
    """Relays one call trace lost mid-call, plus the failovers that followed."""
    return len(tree.root.find("media.failover")) + len(tree.root.find("media.relay_lost"))


def fault_links(trees: Dict[str, TraceTree]) -> Dict[str, List[TraceNode]]:
    """Map each disrupted trace id to the fault spans that touched it."""
    links: Dict[str, List[TraceNode]] = {}
    for tree in trees.values():
        root = tree.root
        if root is None or root.name != "fault":
            continue
        for disrupted in root.attrs.get("disrupted", []):
            links.setdefault(disrupted, []).append(root)
    return links


def probe_messages_by_as(
    calls: List[CallSummary], skypes: List[SkypeSummary]
) -> Tuple[Dict[str, int], Dict[str, int]]:
    """Per-AS probe *message* totals for both protocols (L2/L4 view).

    Skype probes count two messages each (request + response), matching
    ASAP's close-set accounting, so the columns compare like for like.
    """
    asap: Dict[str, int] = {}
    for call in calls:
        for asn, count in call.probes_by_as.items():
            asap[asn] = asap.get(asn, 0) + count
    skype: Dict[str, int] = {}
    for session in skypes:
        for direction in session.directions:
            for asn, probes in direction.probes_by_as.items():
                skype[asn] = skype.get(asn, 0) + 2 * probes
    return asap, skype


# -- aggregation -------------------------------------------------------------


def _mean(values: List[float]) -> Optional[float]:
    return sum(values) / len(values) if values else None


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "-"
    return f"{value:.1f}"


@dataclass
class LimitsReport:
    """The four Skype limits, measured for both protocols from traces.

    Every number is derived purely from trace records; ``n_*`` counts
    say how many calls/sessions back each column.
    """

    n_calls: int
    n_skype: int
    l1_asap_gap_ms: Optional[float]
    l1_skype_gap_ms: Optional[float]
    l2_asap_dup_probes: int
    l2_skype_dup_probes: int
    l3_asap_setup_ms: Optional[float]
    l3_skype_stabilize_ms: Optional[float]
    l3_asap_bounces: float
    l3_skype_bounces: float
    l4_asap_probe_messages: int
    l4_skype_probe_messages: int

    def rows(self) -> List[Tuple[str, str]]:
        """(label, "asap vs skype") rows for a text report."""
        return [
            ("calls analyzed", f"{self.n_calls} asap / {self.n_skype} skype"),
            (
                "L1 relay-RTT gap (mean ms)",
                f"{_fmt(self.l1_asap_gap_ms)} vs {_fmt(self.l1_skype_gap_ms)}",
            ),
            (
                "L2 same-AS duplicate probes",
                f"{self.l2_asap_dup_probes} vs {self.l2_skype_dup_probes}",
            ),
            (
                "L3 stabilization (mean ms)",
                f"{_fmt(self.l3_asap_setup_ms)} vs {_fmt(self.l3_skype_stabilize_ms)}",
            ),
            (
                "L3 relay bounces (mean)",
                f"{self.l3_asap_bounces:.2f} vs {self.l3_skype_bounces:.2f}",
            ),
            (
                "L4 probe messages (total)",
                f"{self.l4_asap_probe_messages} vs {self.l4_skype_probe_messages}",
            ),
        ]


def limits_report(
    calls: List[CallSummary], skypes: List[SkypeSummary]
) -> LimitsReport:
    """Aggregate per-call summaries into the L1–L4 comparison."""
    asap_gaps = [c.relay_gap_ms for c in calls if c.relay_gap_ms is not None]
    skype_gaps = [
        d.relay_gap_ms
        for s in skypes
        for d in s.directions
        if d.relay_gap_ms is not None
    ]
    asap_dup = sum(call.same_as_duplicate_probes for call in calls)
    skype_dup = sum(
        d.same_as_duplicate_probes for s in skypes for d in s.directions
    )
    setups = [c.setup_ms for c in calls if c.setup_ms is not None]
    stabilizations = [s.stabilized_ms for s in skypes if s.stabilized_ms is not None]
    asap_bounces = [float(c.failovers) for c in calls]
    skype_bounces = [float(s.bounces) for s in skypes]
    asap_by_as, skype_by_as = probe_messages_by_as(calls, skypes)
    return LimitsReport(
        n_calls=len(calls),
        n_skype=len(skypes),
        l1_asap_gap_ms=_mean(asap_gaps),
        l1_skype_gap_ms=_mean(skype_gaps),
        l2_asap_dup_probes=asap_dup,
        l2_skype_dup_probes=skype_dup,
        l3_asap_setup_ms=_mean(setups),
        l3_skype_stabilize_ms=_mean(stabilizations),
        l3_asap_bounces=_mean(asap_bounces) or 0.0,
        l3_skype_bounces=_mean(skype_bounces) or 0.0,
        l4_asap_probe_messages=sum(asap_by_as.values()),
        l4_skype_probe_messages=sum(skype_by_as.values()),
    )


# -- rendering ---------------------------------------------------------------

#: Attributes worth showing per span/point name (keeps timelines terse).
_TIMELINE_ATTRS = {
    "setup.ping": ("attempt", "outcome"),
    "setup.select": ("relay_needed", "one_hop", "two_hop", "messages"),
    "setup.close_set": ("leg", "attempt", "outcome"),
    "setup.two_hop": ("cluster", "outcome"),
    "setup.relay_pick": ("relay", "chosen_rtt_ms", "best_candidate_rtt_ms"),
    "setup.done": ("outcome", "setup_ms", "path"),
    "close_set.build": ("owner", "asn", "size", "probe_messages"),
    "media": ("path", "relay"),
    "media.relay_lost": ("relay",),
    "media.failover": ("old_relay", "new_relay", "failover_ms", "interruption_ms"),
    "media.failover_candidate_dead": ("candidate",),
    "media.degraded": ("old_relay", "interruption_ms"),
    "media.dropped": ("old_relay",),
    "net.request": ("category", "outcome"),
    "net.send": ("category", "dropped"),
    "join.retry": ("attempt",),
    "skype.direction": ("direction", "bounces", "stabilized_ms", "final_rtt_ms"),
    "skype.probe": ("relay", "path_rtt_ms", "measured_rtt_ms"),
    "skype.switch": ("relay", "measured_rtt_ms"),
    "skype.relay_died": ("relay",),
}


def _attr_string(node: TraceNode) -> str:
    keys = _TIMELINE_ATTRS.get(node.name)
    attrs = node.attrs
    if keys is None:
        keys = tuple(sorted(attrs))
    parts = [f"{k}={attrs[k]}" for k in keys if attrs.get(k) is not None]
    return " ".join(parts)


#: Entries :func:`render_timeline` prints before it truncates a trace.
TIMELINE_MAX_POINTS = 200


def render_timeline(
    tree: TraceTree, faults: Optional[Dict[str, List[TraceNode]]] = None
) -> List[str]:
    """One trace as indented text lines, times relative to its root."""
    root = tree.root
    if root is None:
        return [f"trace {tree.trace_id}: incomplete (no root span recorded)"]
    origin = root.start_ms
    header = (
        f"{root.name} [{tree.trace_id}] "
        f"{_attr_string(root) or ''}".rstrip()
        + f" ({root.duration_ms:.1f} ms)"
    )
    lines = [header]
    emitted = 0

    def walk(node: TraceNode, depth: int) -> None:
        nonlocal emitted
        for child in node.children:
            if emitted >= TIMELINE_MAX_POINTS:
                return
            emitted += 1
            indent = "  " * depth
            offset = child.start_ms - origin
            if child.kind == "point":
                lines.append(
                    f"{indent}@{offset:10.1f}  {child.name}  {_attr_string(child)}".rstrip()
                )
            else:
                lines.append(
                    f"{indent}@{offset:10.1f}  {child.name} "
                    f"[{child.duration_ms:.1f} ms]  {_attr_string(child)}".rstrip()
                )
            walk(child, depth + 1)

    walk(root, 1)
    if emitted >= TIMELINE_MAX_POINTS:
        lines.append(f"  … truncated at {TIMELINE_MAX_POINTS} entries")
    for fault in (faults or {}).get(tree.trace_id, []):
        offset = fault.start_ms - origin
        lines.append(
            f"  !{offset:10.1f}  fault {fault.attrs.get('kind')} "
            f"target={fault.attrs.get('target')}"
        )
    return lines
