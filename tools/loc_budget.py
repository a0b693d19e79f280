#!/usr/bin/env python3
"""Source-line budget: lines per package under ``src/repro`` against the
committed ``tools/loc_budget.json``.

Exits non-zero when a package has more lines than its budget and the
newest ``CHANGES.md`` line carries no ``loc:`` note saying why.  A PR
that grows (or shrinks) a package re-records the budget by pasting the
JSON this script prints into ``tools/loc_budget.json``.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "repro"
BUDGET = ROOT / "tools" / "loc_budget.json"


def package_lines() -> dict:
    """Physical lines per top-level package (``repro`` = loose modules)."""
    lines: Counter = Counter()
    for path in SOURCE.rglob("*.py"):
        parts = path.relative_to(SOURCE).parts
        package = parts[0] if len(parts) > 1 else "repro"
        with path.open("rb") as handle:
            lines[package] += sum(1 for _ in handle)
    return dict(sorted(lines.items()))


def main() -> int:
    current = package_lines()
    budget = json.loads(BUDGET.read_text())
    grown = [p for p, n in current.items() if n > budget.get(p, 0)]
    for package in sorted(set(current) | set(budget)):
        now, allowed = current.get(package, 0), budget.get(package, 0)
        mark = "  GREW" if package in grown else ""
        print(f"{package:<12} {now:>6} / {allowed:>6} ({now - allowed:+d}){mark}")
    print(f"{'total':<12} {sum(current.values()):>6} / {sum(budget.values()):>6}")
    if current != budget:
        print("current counts, for tools/loc_budget.json:")
        print(json.dumps(current, indent=2))
    if not grown:
        return 0
    newest = [l for l in (ROOT / "CHANGES.md").read_text().splitlines() if l.strip()][-1]
    if "loc:" in newest:
        print(f"growth in {', '.join(grown)} noted in CHANGES.md — re-record the budget")
        return 0
    print(f"FAIL: {', '.join(grown)} grew and the newest CHANGES.md line has no 'loc:' note")
    return 1


if __name__ == "__main__":
    sys.exit(main())
