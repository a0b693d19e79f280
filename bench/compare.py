"""``run.py --compare A.json B.json``: did B get worse than A?

Per workload × end-to-end metric: both values, the relative change and
the bound.  Exit code 1 when any metric moved in its worse direction by
more than its bound, when ``fail_share`` or the failed count rose, or when
B's checks did not pass.  A is the baseline.
"""

from __future__ import annotations

import json
from typing import List, Tuple

import spec


def _bounds(benchmark: dict) -> dict:
    """name -> (better, bound, "rel" | "abs")."""
    table = {
        name: (entry["better"], entry["bound"], "rel")
        for name, entry in spec.end_to_end(benchmark).items()
    }
    for name, (_, better, bound, kind, _) in spec.WORKLOAD_METRICS.items():
        table[name] = (better, bound, kind)
    return table


def worsening(better: str, kind: str, before: float, after: float) -> float:
    """How far ``after`` moved in the worse direction (<= 0: not worse)."""
    delta = (after - before) if better == "lower" else (before - after)
    if kind == "abs":
        return delta
    return delta / abs(before) if before else (1.0 if delta > 0 else 0.0)


def compare(a: dict, b: dict, benchmark: dict) -> Tuple[List[str], List[str]]:
    """Table rows and the list of regressions."""
    bounds = _bounds(benchmark)
    rows = [
        f"{'workload':<12} {'metric':<20} {'A':>14} {'B':>14} {'change':>9} {'bound':>9}"
    ]
    regressions: List[str] = []
    for name, before in a["workloads"].items():
        after = b["workloads"].get(name)
        if after is None:
            regressions.append(f"{name}: missing from B")
            continue
        for metric in spec.metrics_of(name, benchmark):
            if metric not in before["metrics"] or metric not in after["metrics"]:
                continue
            old = before["metrics"][metric]["value"]
            new = after["metrics"][metric]["value"]
            better, bound, kind = bounds[metric]
            worse = worsening(better, kind, old, new)
            change = (new - old) if kind == "abs" else ((new - old) / abs(old) if old else 0.0)
            shown = f"{change:+.4f}" if kind == "abs" else f"{change:+.1%}"
            limit = f"{bound:g} abs" if kind == "abs" else f"{bound:.0%}"
            flag = ""
            # fail_share may not rise at all; everything else has slack.
            if worse > bound or (metric == "fail_share" and new > old):
                flag = "  << worse"
                regressions.append(
                    f"{name}.{metric}: {old:.6g} -> {new:.6g} ({shown}, bound {limit})"
                )
            rows.append(
                f"{name:<12} {metric:<20} {old:>14.6g} {new:>14.6g} {shown:>9} {limit:>9}{flag}"
            )
        if after["failed"] > before["failed"]:
            regressions.append(f"{name}: failed rose {before['failed']} -> {after['failed']}")
        if not after["correct"]:
            regressions.append(f"{name}: B's correctness checks did not pass")
    for check in b.get("checks", ()):
        if not check["ok"]:
            regressions.append(f"B: {check['name']}")
    return rows, regressions


def main(path_a: str, path_b: str, benchmark: dict) -> int:
    with open(path_a, encoding="utf-8") as handle:
        a = json.load(handle)
    with open(path_b, encoding="utf-8") as handle:
        b = json.load(handle)
    rows, regressions = compare(a, b, benchmark)
    print("\n".join(rows))
    if regressions:
        print(f"\n{len(regressions)} regression(s):")
        for line in regressions:
            print(f"  {line}")
        return 1
    print("\nno metric is worse than its bound allows")
    return 0
