#!/usr/bin/env python3
"""Layer gate: every ``repro`` import under ``src/repro`` points down one
declared order.

The nodes are the subpackages of ``repro`` and its root modules
(``errors``, ``scenario``, ``cli``, and ``repro/__init__`` for the
package itself).  :data:`ORDER` lists them bottom-up; a module may import
its own node or any node listed before it, never one listed after it.
Module-level, ``TYPE_CHECKING`` and function-level imports all count;
``from repro import obs`` resolves to ``repro.obs``, a relative import
against the importing file's package.

A function-level ``repro`` import (outside ``cli.py``, which loads each
command's stack on demand) must also be on :data:`LAZY` with the
start-up cost it saves.  An import that is lazy only to dodge a cycle
belongs at module top, once the cycle is cut.

Exits 1 after printing ``file:line`` for each upward import, each lazy
import not on :data:`LAZY`, each node missing from :data:`ORDER` and
each stale :data:`LAZY` entry.

Run: ``python tools/layers.py``.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "repro"

#: The layers, bottom-up: measurements fill the delegate matrices,
#: surrogates build close sets from them, relay selection reads the sets.
ORDER = (
    "errors",
    "util",
    "obs",
    "netaddr",
    "bgp",
    "topology",
    "voip",
    "media",
    "measurement",
    "storage",
    "sim",
    "net",
    "worldarrays",
    "scenario",
    "core",
    "baselines",
    "control",
    "faults",
    "skype",
    "service",
    "evaluation",
    "repro/__init__",  # the package: scenario now, evaluation on first use
    "cli",             # reads repro.__version__
)

#: Function-level imports allowed outside ``cli.py``:
#: (file under ``src/repro``, imported module) -> the start-up cost saved.
LAZY = {
    ("__init__.py", "repro.evaluation"): (
        "repro.__getattr__: `import repro` stays off the evaluation stack, "
        "which pulls in every protocol layer"
    ),
    ("bgp/asgraph.py", "repro.bgp.csr"): (
        "ASGraph.csr() builds the numpy export on first use; at module top "
        "numpy loads from inside bgp.asgraph and `import repro.core` "
        "measured ~12 ms heavier"
    ),
    ("scenario.py", "repro.storage.cache"): (
        "the artifact cache loads when a scenario is built, so "
        "`import repro` / `import repro.core` stay off repro.storage"
    ),
}


def _node_of(module: str) -> str:
    """The layer node of a dotted ``repro`` module name."""
    parts = module.split(".")
    return parts[1] if len(parts) > 1 else "repro/__init__"


def _node_of_file(rel: Path) -> str:
    if len(rel.parts) > 1:
        return rel.parts[0]
    return "repro/__init__" if rel.name == "__init__.py" else rel.stem


def _targets(node: ast.AST, top: Path, rel: Path) -> list:
    """The ``repro`` modules one import statement in ``top/repro/rel``
    loads; ``from X import name`` loads ``X.name`` when that is a module."""
    if isinstance(node, ast.Import):
        return [a.name for a in node.names if a.name.split(".")[0] == "repro"]
    module = node.module or ""
    if node.level:  # relative: resolve against the file's own package
        package = ("repro", *rel.parent.parts)
        module = ".".join(package[: len(package) - node.level + 1] + ((module,) if module else ()))
    if module.split(".")[0] != "repro":
        return []
    base = top.joinpath(*module.split("."))
    found = {}
    for alias in node.names:
        sub = base / alias.name
        is_module = sub.is_dir() or sub.with_suffix(".py").is_file()
        found[f"{module}.{alias.name}" if is_module else module] = None
    return list(found)


def _imports(tree: ast.Module):
    """(statement, in a function) for every import in ``tree``."""
    stack = [(tree, False)]
    while stack:
        node, lazy = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node, lazy
        inner = lazy or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        stack.extend((child, inner) for child in ast.iter_child_nodes(node))


def violations(source: Path = SOURCE, order=ORDER, lazy=LAZY) -> list:
    """``file:line: message`` for each import that breaks the layer order."""
    rank = {name: i for i, name in enumerate(order)}
    found, used = [], set()
    for path in sorted(source.rglob("*.py")):
        rel = path.relative_to(source)
        where = path.relative_to(ROOT) if path.is_relative_to(ROOT) else path
        here = _node_of_file(rel)
        if here not in rank:
            found.append(f"{where}:1: layer {here!r} is not in ORDER")
            continue
        tree = ast.parse(path.read_bytes(), filename=str(path))
        for stmt, in_function in sorted(_imports(tree), key=lambda s: s[0].lineno):
            at = f"{where}:{stmt.lineno}:"
            for target in _targets(stmt, source.parent, rel):
                there = _node_of(target)
                if there not in rank:
                    found.append(f"{at} imports {target}, whose layer {there!r} is not in ORDER")
                elif rank[there] > rank[here]:
                    found.append(f"{at} {here} imports {target}, a layer above it ({there})")
                if in_function and here != "cli":
                    key = (rel.as_posix(), target)
                    used.add(key)
                    if key not in lazy:
                        found.append(
                            f"{at} function-level import of {target} is not on the LAZY allow-list"
                        )
    for key in sorted(set(lazy) - used):
        found.append(f"tools/layers.py:1: LAZY entry {key!r} is stale; remove it")
    return found


def main() -> int:
    found = violations()
    for line in found:
        print(line)
    print(f"{len(found)} layer violations across {len(ORDER)} layers")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
