#!/usr/bin/env python3
"""Reachability ratchet: every definition under ``src/repro`` is named by
something other than the tests.

A definition is a top-level function or class, or a method of a
top-level class (dunder methods excepted: Python calls them).  It is
*reached* when its name occurs as an identifier, an attribute or a word
inside a non-docstring string literal in some file under ``src/``,
``bench/``, ``examples/`` or ``benchmarks/`` — not counting its own body,
``__all__`` lists, or the imports of an ``__init__.py`` (re-exports).

Exits 1 when an unreached definition is not on :data:`ALLOWED`, or when
an allowed name is no longer defined-and-unreached (a stale entry).
Names collide (two methods called ``run`` reach each other), so a pass
is a lower bound on dead code, not proof of life.

Run: ``python tools/reach.py``.
"""

from __future__ import annotations

import ast
import re
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "repro"
SCANNED = ("src", "bench", "examples", "benchmarks")
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

#: Unreached on purpose: qualified name -> why it stays.
ALLOWED = {
    "_Conn.connection_made": "asyncio.Protocol callback; the event loop calls it",
    "_Conn.data_received": "asyncio.Protocol callback; the event loop calls it",
    "_Conn.connection_lost": "asyncio.Protocol callback; the event loop calls it",
    "_Conn.pause_writing": "asyncio.Protocol flow-control callback; the transport calls it",
    "_Conn.resume_writing": "asyncio.Protocol flow-control callback; the transport calls it",
    "tiny_scenario": "test fixture world shared by many test modules",
    "MetricsRegistry.counter_value": "test accessor for counters, used across the suite",
    "FrameDecoder.pending_bytes": "test accessor for the decoder's buffered tail",
    "Message.pack_payload": "codec test hook: payload bytes without the frame header",
    "read_rib_file": "boundary reader of real RIB dumps (boundary suite)",
    "read_update_file": "boundary reader of real BGP update dumps (boundary suite)",
    "read_asgraph_file": "boundary reader of CAIDA AS-relationship files (boundary suite)",
    "load_records_csv": "boundary reader of exported session records (boundary suite)",
    "load_manifest": "validating manifest reader of the CI smokes and the suite; repro report reads unvalidated",
}


def _docstrings(tree: ast.AST) -> set:
    """ids of the docstring constants of a module and its defs."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                found.add(id(body[0].value))
    return found


def _names(root: ast.AST, docstrings: set, reexports: bool) -> Counter:
    """Every name ``root`` mentions: identifiers, attributes, words in strings."""
    names: Counter = Counter()
    stack = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)) and reexports:
            continue
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if id(node) not in docstrings:
                names.update(WORD.findall(node.value))
        stack.extend(ast.iter_child_nodes(node))
    return names


def _definitions(tree: ast.Module):
    """(qualname, node) for top-level defs and the methods of top-level classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and not (
            node.name.startswith("__") and node.name.endswith("__")
        ):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{node.name}.{item.name}", item


def unreached() -> list:
    """(path, line, qualname, lines) of each definition nothing reaches."""
    total: Counter = Counter()
    parsed = {}
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_bytes(), filename=str(path))
            docstrings = _docstrings(tree)
            total.update(_names(tree, docstrings, path.name == "__init__.py"))
            if path.is_relative_to(SOURCE):
                parsed[path] = (tree, docstrings)
    found = []
    for path, (tree, docstrings) in parsed.items():
        for qualname, node in _definitions(tree):
            name = node.name
            own = _names(node, docstrings, False)[name]
            if total[name] - own <= 0:
                lines = node.end_lineno - node.lineno + 1
                found.append((path.relative_to(ROOT), node.lineno, qualname, lines))
    return found


def main() -> int:
    found = unreached()
    names = {qualname for _, _, qualname, _ in found}
    failed = False
    for path, line, qualname, lines in found:
        if qualname in ALLOWED:
            continue
        print(f"{path}:{line}: {qualname} ({lines} lines) is reached by nothing outside tests/")
        failed = True
    for qualname in sorted(set(ALLOWED) - names):
        print(f"tools/reach.py: allow-list entry {qualname!r} is stale; remove it")
        failed = True
    print(f"{len(found)} unreached definitions, {len(ALLOWED)} allowed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
