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

A second pass holds config fields to the same rule: each field of a
``*Config`` or ``*Policy`` dataclass under ``src/repro`` (and of
:data:`CONFIG_NAMES`) needs a *setter* in ``src/``, ``bench/`` or
``benchmarks/`` — a constructor argument, a ``dataclasses.replace``
keyword, or a key of a dict ``**``-unpacked into the constructor.  A
value nothing outside the tests sets is a module constant, not a knob.
Exits 1 on an unset field not on :data:`UNSET_ALLOWED`, or on a stale
entry there.

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

#: Dataclasses the field pass checks besides the ``*Config`` / ``*Policy`` ones.
CONFIG_NAMES = ("LimitThresholds",)
FIELD_SCANNED = ("src", "bench", "benchmarks")

_WORLD = "world model: scenario_cache_key hashes it and TestScenarioCacheKey pins the keys"
_FAULTS = "fault kinds the network differential harness drives; only the chaos rates have flags"
_SKYPE = "the L1-L4 analyzer rework shapes the Skype model through it"
_SOFT_STATE = "the soft-state refresh rewrite sets it"

#: Config fields with no setter outside the tests on purpose: ``Class``
#: (every unset field of it) or ``Class.field`` -> why it stays a field.
UNSET_ALLOWED = {
    "ScenarioConfig": _WORLD,
    "TopologyConfig": _WORLD,
    "PopulationConfig": _WORLD,
    "ConditionsConfig": _WORLD,
    "FaultScheduleConfig": _FAULTS,
    "SkypeConfig": _SKYPE,
    "LimitThresholds": _SKYPE,
    "SoakConfig.maintenance_interval_ms": _SOFT_STATE,
    "SoakConfig.registry_ttl_ms": _SOFT_STATE,
    "AdaptationPolicy": "the hysteresis tests shape the adapter with short windows",
    "MediaPlaneConfig.jitter_mean_ms": (
        "0 gives the jitter-free path MEASURED_MOS_TOLERANCE is stated on (docs/media.md)"
    ),
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


def _last_name(node: ast.expr) -> str:
    """``C`` for ``C``, ``mod.C``, ``C(...)`` and ``mod.C(...)``."""
    node = node.func if isinstance(node, ast.Call) else node
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")


def _callee(node: ast.expr) -> str:
    """``C`` for ``C(...)``, ``mod.C(...)`` and ``C.preset(...)``-style calls."""
    func = node.func
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        return func.value.id if func.value.id[:1].isupper() else func.attr
    return _last_name(func)


def _configs(trees: dict) -> dict:
    """Config class name -> (path, {field: (line, annotation text)}), fields in order."""
    configs = {}
    for path, tree in trees.items():
        for node in tree.body:
            if not (
                isinstance(node, ast.ClassDef)
                and (node.name.endswith(("Config", "Policy")) or node.name in CONFIG_NAMES)
                and any(_last_name(d) == "dataclass" for d in node.decorator_list)
            ):
                continue
            fields = {}
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    annotation = ast.unparse(item.annotation)
                    if not annotation.startswith(("ClassVar", "typing.ClassVar")):
                        fields[item.target.id] = (item.lineno, annotation)
            configs[node.name] = (path, fields)
    return configs


class _Setters(ast.NodeVisitor):
    """Collects (class, field) pairs that some call sets."""

    def __init__(self, configs: dict) -> None:
        self.configs = configs
        self.found = set()
        self.scopes = []   # enclosing module / function / class nodes
        self.owner = []    # enclosing config class names

    def _scoped(self, node: ast.AST) -> None:
        self.scopes.append(node)
        self.generic_visit(node)
        self.scopes.pop()

    visit_Module = visit_FunctionDef = visit_AsyncFunctionDef = _scoped

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.owner.append(node.name if node.name in self.configs else None)
        self._scoped(node)
        self.owner.pop()

    def _assigned(self, name: str) -> list:
        """Values assigned to ``name`` in the innermost scope, and its annotations."""
        scope = self.scopes[-1]
        values = []
        for node in ast.walk(scope):
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets
            ):
                values.append(node.value)
            elif isinstance(node, ast.arg) and node.arg == name and node.annotation is not None:
                values.append(node.annotation)
        return values

    def _types(self, node: ast.expr, depth: int = 0) -> set:
        """Config classes ``node`` may hold; empty when it cannot tell."""
        if depth > 4:
            return set()
        if isinstance(node, ast.Call):
            name = _callee(node)
            return {name} if name in self.configs else set()
        if isinstance(node, ast.Name):
            if node.id in ("self", "cls") and self.owner and self.owner[-1]:
                return {self.owner[-1]}
            if node.id in self.configs:
                return {node.id}
            found = set()
            for value in self._assigned(node.id):
                found |= self._types(value, depth + 1)
            return found
        if isinstance(node, ast.Attribute):
            # ``x.conditions`` holds what a config field called ``conditions`` is typed as.
            return {
                word
                for _, fields in self.configs.values()
                for field, (_, annotation) in fields.items()
                if field == node.attr
                for word in WORD.findall(annotation)
                if word in self.configs
            }
        if isinstance(node, (ast.Subscript, ast.BinOp)):  # Optional[C], C | None
            found = set()
            for child in ast.walk(node):
                if isinstance(child, ast.Name) and child.id in self.configs:
                    found.add(child.id)
            return found
        return set()

    def _keys(self, node: ast.expr, depth: int = 0) -> set:
        """The string keys a dict expression may carry."""
        if depth > 4:
            return set()
        if isinstance(node, ast.Dict):
            keys = set()
            for key, value in zip(node.keys, node.values):
                if key is None:
                    keys |= self._keys(value, depth + 1)
                elif isinstance(key, ast.Constant) and isinstance(key.value, str):
                    keys.add(key.value)
            return keys
        if isinstance(node, ast.Call) and _last_name(node) == "dict":
            return self._kwargs(node.keywords, depth + 1)
        if isinstance(node, ast.IfExp):
            return self._keys(node.body, depth + 1) | self._keys(node.orelse, depth + 1)
        if isinstance(node, ast.Name):
            keys = set()
            for value in self._assigned(node.id):
                keys |= self._keys(value, depth + 1)
            return keys
        return set()

    def _kwargs(self, keywords: list, depth: int = 0) -> set:
        names = set()
        for keyword in keywords:
            if keyword.arg is None:
                names |= self._keys(keyword.value, depth)
            else:
                names.add(keyword.arg)
        return names

    def visit_Call(self, node: ast.Call) -> None:
        name = _last_name(node)
        if name == "replace" and node.args:
            owners = self._types(node.args[0]) or set(self.configs)
            for keyword in self._kwargs(node.keywords):
                self.found.update((c, keyword) for c in owners)
        else:
            owner = name if name in self.configs else None
            if name == "cls" and self.owner:
                owner = self.owner[-1]
            if owner is not None:
                fields = list(self.configs[owner][1])
                self.found.update((owner, f) for f in fields[: len(node.args)])
                self.found.update((owner, k) for k in self._kwargs(node.keywords))
        self.generic_visit(node)


def unset_fields(root: Path = ROOT) -> list:
    """(path, line, ``Class.field``) of each config field nothing outside the tests sets."""
    trees = {}
    for top in FIELD_SCANNED:
        for path in sorted((root / top).rglob("*.py")):
            trees[path] = ast.parse(path.read_bytes(), filename=str(path))
    source = root / "src" / "repro"
    configs = _configs({p: t for p, t in trees.items() if p.is_relative_to(source)})
    setters = _Setters(configs)
    for tree in trees.values():
        setters.visit(tree)
    return [
        (path.relative_to(root), line, f"{name}.{field}")
        for name, (path, fields) in sorted(configs.items())
        for field, (line, _) in fields.items()
        if (name, field) not in setters.found
    ]


def field_problems(found: list, allowed: dict = UNSET_ALLOWED) -> list:
    """One line per unset field not allowed, and per stale allow-list entry."""
    problems, used = [], set()
    for path, line, qualname in found:
        keys = {qualname, qualname.split(".")[0]} & set(allowed)
        used |= keys
        if not keys:
            problems.append(f"{path}:{line}: config field {qualname} is set by nothing outside tests/")
    for key in sorted(set(allowed) - used):
        problems.append(f"tools/reach.py: field allow-list entry {key!r} is stale; remove it")
    return problems


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
    unset = unset_fields()
    problems = field_problems(unset)
    for line in problems:
        print(line)
    print(f"{len(unset)} config fields without a setter outside tests/, {len(UNSET_ALLOWED)} allow-list entries")
    return 1 if failed or problems else 0


if __name__ == "__main__":
    sys.exit(main())
