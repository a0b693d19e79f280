#!/usr/bin/env python3
"""Reachability ratchet: every definition under ``src/repro`` runs in CI.

The one rule: a definition — a top-level function, or a method of a
top-level class (dunders excepted: Python calls them) — is alive when it
gets at least one call while CI's product commands run under a stdlib
``sys.setprofile`` hook.  Those commands are

- every ``python -m repro.cli`` line of ``.github/workflows/ci.yml``, with
  its flags, in process (a line ending in ``&``, ``repro serve``, runs in a
  child process under its own hook);
- every row of ``tests/test_golden.py``'s ``GOLDEN`` table, in process, with
  the artifact flags that test adds;
- ``examples/*.py``;
- the six ``bench/workloads.py`` workloads in smoke mode, in process;
- the figure suite (``pytest benchmarks``), on a cold scenario cache.

Exits 1 when one of them fails, when a definition got no call and is not
on :data:`ALLOWED`, or when an allowed definition got a call (a stale
entry; entries whose reason is in :data:`SOMETIMES` are exempt).  Something
only the tests call is deleted, moved into ``tests/``, or — when a fault,
a flag CI never passes, an interface or the benchmark needs it — allowed.
To allow one, add ``"Class.method": reason`` (or ``"function": reason``) to
:data:`ALLOWED`, reusing a reason constant where one fits, and say in the
reason what calls it instead.

Keywords are held to the same rule.  A keyword of a called definition
fails the run when no call under the hook passed it a value other than its
default *and* no call in ``src/``, ``bench/`` or ``benchmarks/`` passes it,
by name or by position (the source scan below; calls are matched to
definitions by name, and a positional argument counts only when one
``src/repro`` definition has that name) — unless :data:`KEYWORD_ALLOWED`
gives a reason.  A
value nothing but the tests changes is a module constant, not a parameter;
a stale allow-list entry fails too.

A second pass holds config fields to the same rule, by reading the source:
each field of a ``*Config`` or ``*Policy`` dataclass under ``src/repro``
(and of :data:`CONFIG_NAMES`) needs a *setter* in ``src/``, ``bench/`` or
``benchmarks/`` — a constructor argument, a ``dataclasses.replace``
keyword, or a key of a dict ``**``-unpacked into the constructor.  Exits 1
on an unset field not on :data:`UNSET_ALLOWED`, or on a stale entry there.

Run: ``python tools/reach.py`` (about a minute; needs pytest).
"""

from __future__ import annotations

import ast
import contextlib
import inspect
import itertools
import json
import os
import re
import runpy
import shlex
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "repro"
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

_ABSTRACT = "abstract: every subclass overrides it"
_BOUNDARY = "boundary reader of an external file format; its tests round-trip the writer's output"
_BENCH = "bench/tracing.py wraps it by name"
_SCRIPT = "a CI script (a heredoc, not a CLI command) calls it"
_FAULT = "fault kind with no CLI flag; the fault-injection tests drive it"
_CHECKED = "error path: names the bad field when a struct pack fails"
_NULL = "null-object Tracer method: callers never check which tracer they hold"
_TCP = "TCP flow control or timeout: runs only when the kernel or the clock says so"
_LARGE = "--scale 100k / 1m only: too large for CI"

#: Definitions CI's product commands never call, on purpose: qualified
#: name -> why it stays.
ALLOWED = {
    "RelayPolicy.evaluate_sessions": _ABSTRACT,
    "RelayMethod.evaluate_sessions": _ABSTRACT,
    "Transport.local_address": _ABSTRACT,
    "Transport.bind": _ABSTRACT,
    "Transport.start": _ABSTRACT,
    "Transport.close": _ABSTRACT,
    "Transport.send": _ABSTRACT,
    "Transport.request": _ABSTRACT,
    "Transport.now_ms": _ABSTRACT,
    "Transport.sleep_ms": _ABSTRACT,
    "Transport.gather": _ABSTRACT,
    "parse_update_stream": _BOUNDARY,
    "parse_update_line": _BOUNDARY,
    "_parse_update_fields": _BOUNDARY,
    "_parse_ts": _BOUNDARY,
    "read_rib_file": _BOUNDARY,
    "read_update_file": _BOUNDARY,
    "read_asgraph_file": _BOUNDARY,
    "load_records_csv": _BOUNDARY,
    "LoopbackHub.sleep_ms": _BENCH,
    "VirtualMatrices.gather_loss": _BENCH,
    "DelegateMatrices.gather_loss": "dense twin of VirtualMatrices.gather_loss; the parity tests read both",
    "observe": "bench/worker.py runs its traced rounds under it",
    "load_manifest": _SCRIPT + " (e2e-smoke, service-smoke's TCP demo)",
    "ReceivedTrace.to_jsonl": (
        "the golden media-session digest and the determinism tests serialize frame traces through it"
    ),
    "ASAPRuntime.bootstrap_hosts": _FAULT + " (bootstrap outage)",
    "SimNetwork.set_as_down": _FAULT + " (AS outage)",
    "SimNetwork.set_as_up": _FAULT + " (AS outage)",
    "SimNetwork.push_loss": _FAULT + " (loss burst)",
    "SimNetwork.pop_loss": _FAULT + " (loss burst)",
    "BootstrapServer._on_leave": "wire handler: a Leave may come from any peer",
    "Wait.fail": "loopback request timeout",
    "Simulator._misuse": "error path: a wait awaited twice",
    "Simulator.step": "test reference: tests/test_sim.py steps the simulator event by event",
    "_DirectionMachine._relay_died": "a Skype relay's sampled lifetime ends inside a session",
    "ColumnStore.clear": "a stale or corrupt spill directory",
    "_reservoir_slot": "a histogram's reservoir overflows",
    "MetricsRegistry._count_dropped": "a histogram's reservoir overflows",
    "Tracer.set_node": "serve / dial under --trace",
    "CloseClusterSet.clusters": "CloseClusterSet.__eq__ and the oracles read the set through it",
    "CloseClusterSet.entries": "CloseClusterSet.__eq__ and the oracles read the set through it",
    "_check_i32": _CHECKED,
    "_check_f64": _CHECKED,
    "_check_ip": _CHECKED,
    "_check_all": _CHECKED,
    "_pack_pairs_checked": "close-set pairs given as tuples; the product sends PAIR_DTYPE tables",
    "_NullTracer.active": _NULL,
    "_NullTracer.scope": _NULL,
    "_NullTracer.continue_trace": _NULL,
    "_NullTracer.flush": _NULL,
    "_NullTracer.close": _NULL,
    "_expire": _TCP,
    "_Conn.pause_writing": _TCP,
    "_Conn.resume_writing": _TCP,
    "_Conn.enqueue_waiter": _TCP,
    "_100k_preset": _LARGE,
    "_1m_preset": _LARGE,
    "allocate_prefixes_hierarchical": _LARGE,
}
#: Reasons whose entries may get a call on one run and none on the next.
SOMETIMES = {_TCP}

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


#: Keywords of called definitions that CI's product commands leave at their
#: defaults and that no call outside the tests passes, on purpose:
#: ``"qualname(keyword=)"`` -> why it stays a keyword.
KEYWORD_ALLOWED = {
    "OPTMethod._score(prune=)": (
        "reference path: tests/oracles.py scores with prune=False, the full fold "
        "CI's Section-7 exactness step compares the pruned one against"
    ),
    "run_section5(config=)": _SKYPE,
    "run_conference(media=)": (
        "the jitter-free MediaPlaneConfig MEASURED_MOS_TOLERANCE is stated on (docs/media.md)"
    ),
    "run_demo(shards=)": (
        "the sharded wire bootstrap; ROADMAP's bootstrap-under-load study drives it, "
        "and until then only tests start more than one shard"
    ),
}


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


def _signatures(trees: dict) -> dict:
    """Function or method name -> the parameter lists a positional argument
    may fill (``self`` / ``cls`` dropped), one per definition of that name."""
    signatures = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                params = [a.arg for a in node.args.posonlyargs + node.args.args]
                if params[:1] in (["self"], ["cls"]):
                    params = params[1:]
                signatures.setdefault(node.name, []).append(params)
    return signatures


class _Setters(ast.NodeVisitor):
    """Collects (class, field) pairs that some call sets, and (name,
    keyword) pairs of the parameters some call to ``name`` passes, by
    name or by position."""

    def __init__(self, configs: dict, signatures: dict) -> None:
        self.configs = configs
        self.signatures = signatures
        self.found = set()
        self.passed = set()
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
        keywords = self._kwargs(node.keywords)
        self.passed.update((name, keyword) for keyword in keywords)
        # A ``*args`` hides which parameters the arguments after it fill.
        starred = [at for at, arg in enumerate(node.args) if isinstance(arg, ast.Starred)]
        positional = starred[0] if starred else len(node.args)
        # Which definition a positional argument fills is known only when
        # one definition has the called name.
        signatures = self.signatures.get(name, ())
        if len(signatures) == 1:
            self.passed.update((name, param) for param in signatures[0][:positional])
        if name == "replace" and node.args:
            owners = self._types(node.args[0]) or set(self.configs)
            for keyword in keywords:
                self.found.update((c, keyword) for c in owners)
        else:
            owner = name if name in self.configs else None
            if name == "cls" and self.owner:
                owner = self.owner[-1]
            if owner is not None:
                fields = list(self.configs[owner][1])
                self.found.update((owner, f) for f in fields[: len(node.args)])
                self.found.update((owner, k) for k in keywords)
        self.generic_visit(node)


def scan(root: Path = ROOT) -> _Setters:
    """The setters and passed keywords of every call in ``src/``, ``bench/``
    and ``benchmarks/``."""
    trees = {}
    for top in FIELD_SCANNED:
        for path in sorted((root / top).rglob("*.py")):
            trees[path] = ast.parse(path.read_bytes(), filename=str(path))
    source = {p: t for p, t in trees.items() if p.is_relative_to(root / "src" / "repro")}
    setters = _Setters(_configs(source), _signatures(source))
    for tree in trees.values():
        setters.visit(tree)
    return setters


def unset_fields(root: Path = ROOT) -> list:
    """(path, line, ``Class.field``) of each config field nothing outside the tests sets."""
    setters = scan(root)
    return [
        (path.relative_to(root), line, f"{name}.{field}")
        for name, (path, fields) in sorted(setters.configs.items())
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


def keyword_problems(unchanged: list, passed: set, allowed: dict = KEYWORD_ALLOWED) -> list:
    """One line per keyword that only ever took its default and that no call
    outside the tests passes, unless allowed, and per stale allow-list entry.

    ``unchanged`` holds ``(path, qualname, keyword)``; ``passed`` the
    ``(name, keyword)`` pairs of :func:`scan`."""
    problems, used = [], set()
    for path, qualname, keyword in sorted(unchanged):
        if (qualname.rsplit(".", 1)[-1], keyword) in passed:
            continue
        key = f"{qualname}({keyword}=)"
        if key in allowed:
            used.add(key)
        else:
            problems.append(
                f"{path}: {key} only ever took its default, and nothing outside tests/ passes it"
            )
    for key in sorted(set(allowed) - used):
        problems.append(f"tools/reach.py: keyword allow-list entry {key!r} is stale; remove it")
    return problems


CI = ROOT / ".github" / "workflows" / "ci.yml"
CLI = "python -m repro.cli"
#: Shell words that end a command's argv on a CI line.
SHELL = ("|", ">", ">>", "2>&1", "&")


def ci_commands(text: str) -> list:
    """``(argv, background)`` of each ``python -m repro.cli`` line of a CI
    workflow, continuation lines joined; lines that expand a variable
    (the ``--help`` loop) are skipped."""
    commands, joined = [], ""
    for line in text.splitlines():
        joined += line.strip()
        if joined.endswith("\\"):
            joined = joined[:-1] + " "
            continue
        line, joined = joined, ""
        if CLI not in line:
            continue
        words = shlex.split(line.split(CLI, 1)[1])
        argv = list(itertools.takewhile(lambda word: word not in SHELL, words))
        command = (argv, words[-1:] == ["&"])
        if command not in commands and not any("$" in word for word in argv):
            commands.append(command)
    return commands


GOLDEN = ROOT / "tests" / "test_golden.py"


def golden_commands(text: str) -> list:
    """``(directory, argv, exit code)`` of each row of the ``GOLDEN`` table
    in the golden test's source ``text``, with the flags that test adds:
    each flagged artifact's file, and ``--trace --obs-dir`` when a row pins
    ``traces`` or ``telemetry``.  Paths are relative: each row writes under
    its own ``directory``, laid out as the test's ``tmp_path``."""
    table = next(
        node.value
        for node in ast.parse(text).body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "GOLDEN" for t in node.targets)
    )
    commands = []
    for name, (argv, outputs, code, pinned) in ast.literal_eval(table).items():
        out = Path("golden", name)
        args = [arg for key, flag in outputs.items() for arg in (flag, str(out / key))]
        if {"traces", "telemetry"} & set(pinned):
            args += ["--trace", "--obs-dir", str(out / "obs")]
        commands.append((out, [*argv, *args], code))
    return commands


def definitions() -> list:
    """``(path, first line, qualname, lines)`` of each top-level function and
    method of a top-level class under ``src/repro`` (dunders excepted: Python
    calls them).  The first line is a decorator's, as in ``co_firstlineno``."""
    found = []
    for path in sorted(SOURCE.rglob("*.py")):
        tree = ast.parse(path.read_bytes(), filename=str(path))
        for node in tree.body:
            items = [(node, "")]
            if isinstance(node, ast.ClassDef):
                items = [(item, f"{node.name}.") for item in node.body]
            for item, owner in items:
                if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if item.name.startswith("__") and item.name.endswith("__"):
                    continue
                first = min([d.lineno for d in item.decorator_list] + [item.lineno])
                lines = item.end_lineno - first + 1
                found.append((path, first, owner + item.name, lines))
    return found


class Probe:
    """A ``sys.setprofile`` hook that keeps every code object it sees called,
    and for each ``repro`` function keyword with a default, whether a call
    passed something else."""

    def __init__(self) -> None:
        self.called = set()
        self.extra = set()     # sites a child process reported
        self.watched = {}      # code -> {keyword: default} not yet seen changed
        self.keywords = set()  # (path, first line, keyword) of every default
        self.changed = set()   # the ones some call passed another value
        self.modules = 0
        self.source = str(SOURCE)

    def __call__(self, frame, event, arg) -> None:
        if event != "call":
            return
        code = frame.f_code
        self.called.add(code)
        watch = self.watched.get(code)
        if watch is None and len(sys.modules) != self.modules and code.co_filename.startswith(self.source):
            self._refresh()
            watch = self.watched.get(code)
        if watch:
            values = frame.f_locals
            for name in [n for n, d in watch.items() if _differs(values.get(n, d), d)]:
                del watch[name]
                self.changed.add((code.co_filename, code.co_firstlineno, name))

    def _refresh(self) -> None:
        self.modules = len(sys.modules)
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for value in list(vars(module).values()):
                for function in _functions(value, module.__name__):
                    code = function.__code__
                    if code in self.watched:
                        continue
                    positional = code.co_varnames[: code.co_argcount]
                    defaults = function.__defaults__ or ()
                    keywords = dict(zip(positional[len(positional) - len(defaults):], defaults))
                    keywords.update(function.__kwdefaults__ or {})
                    self.watched[code] = keywords
                    self.keywords |= {(code.co_filename, code.co_firstlineno, k) for k in keywords}

    def sites(self) -> set:
        """``(path, first line)`` of each ``repro`` code object called."""
        return self.extra | {
            (code.co_filename, code.co_firstlineno)
            for code in self.called
            if code.co_filename.startswith(self.source)
        }

    def unchanged(self) -> set:
        """``(path, first line, keyword)`` of each keyword of a called
        function that no call passed another value."""
        sites = self.sites()
        return {key for key in self.keywords - self.changed if key[:2] in sites}

    def __enter__(self):
        sys.setprofile(self)
        threading.setprofile(self)
        return self

    def __exit__(self, *exc) -> None:
        sys.setprofile(None)
        threading.setprofile(None)


SIMPLE = (int, float, bool, str, bytes, type(None))


def _differs(value, default) -> bool:
    if value is default:
        return False
    if isinstance(value, SIMPLE) and isinstance(default, SIMPLE):
        return value != default
    return True


def _functions(value, module: str):
    """The plain functions a module attribute defines in ``module``: itself,
    or a class's methods (static, class and property ones unwrapped)."""
    if inspect.isfunction(value):
        if value.__module__ == module:
            yield value
    elif inspect.isclass(value) and value.__module__ == module:
        for item in vars(value).values():
            if isinstance(item, (staticmethod, classmethod)):
                item = item.__func__
            if isinstance(item, property):
                yield from (f for f in (item.fget, item.fset) if f is not None)
            elif inspect.isfunction(item):
                yield item


#: Started in a child process by :func:`_start_child`: a background CI
#: command (``repro serve ... &``) under its own probe.
CHILD = """\
import sys
sys.path[:0] = [{tools!r}, {src!r}]
import reach
reach.child({argv!r}, {out!r})
"""


def child(argv: list, out: str) -> None:
    """Run one CLI command under a probe; write the called ``repro`` code."""
    from repro.cli import main as cli

    probe = Probe()
    try:
        with probe:
            cli(argv)
    finally:
        found = {"sites": sorted(probe.sites()), "changed": sorted(probe.changed)}
        Path(out).write_text(json.dumps(found))


def _start_child(argv: list, scratch: Path):
    """Start a background command in a child probe; return once it printed a
    line (``repro serve`` prints its address when it listens)."""
    name = scratch / f"child-{len(list(scratch.glob('child-*.out')))}"
    out, log = name.with_suffix(".json"), name.with_suffix(".out")
    code = CHILD.format(tools=str(ROOT / "tools"), src=str(ROOT / "src"), argv=argv, out=str(out))
    with log.open("w") as sink:
        process = subprocess.Popen(
            [sys.executable, "-c", code], cwd=scratch, stdout=sink, stderr=subprocess.STDOUT
        )
    deadline = time.monotonic() + 120
    while time.monotonic() < deadline and process.poll() is None and not log.read_text():
        time.sleep(0.2)
    return process, out


def run_product(probe: Probe, scratch: Path) -> list:
    """Run CI's product commands in ``scratch`` under ``probe``: each CLI
    command of the CI workflow and of the golden table, ``examples/*.py``,
    the benchmark's workloads in smoke mode and the figure suite.  Returns
    one line per failure."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    home = os.getcwd()
    os.chdir(scratch)
    from repro.cli import main as cli

    failures, children = [], []

    def run(label, action, expected=0):
        with (scratch / "product.out").open("a") as sink:
            with probe, contextlib.redirect_stdout(sink):
                try:
                    status = action()
                except SystemExit as exc:
                    status = exc.code
        if (status or 0) != expected:
            failures.append(f"{label}: {status}")

    try:
        for argv, background in ci_commands(CI.read_text()):
            if background:
                children.append(_start_child(argv, scratch))
            else:
                run("repro " + " ".join(argv), lambda: cli(argv))
    finally:
        for process, _ in children:
            process.send_signal(signal.SIGINT)
            try:
                process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
    for _, out in children:
        found = json.loads(out.read_text())
        probe.extra |= {tuple(site) for site in found["sites"]}
        probe.changed |= {tuple(key) for key in found["changed"]}
    for out, argv, code in golden_commands(GOLDEN.read_text()):
        out.mkdir(parents=True)
        run("repro " + " ".join(argv), lambda: cli(argv), code)
    for path in sorted((ROOT / "examples").glob("*.py")):
        run(path.name, lambda: runpy.run_path(str(path), run_name="__main__") and 0)

    import workloads

    def workload(name):
        work = workloads.make_workload(name, 0, True, str(scratch))
        work.setup()
        finish = work.finish([work.reduce(work.round())])
        checks = finish["checks"] + work.teardown()
        return [check for check, ok, _ in checks if not ok]

    for name in [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]:
        run(f"workload {name}", lambda: workload(name))

    import pytest

    os.environ["REPRO_CACHE_DIR"] = str(scratch / "figure-cache")
    with probe:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "benchmarks")])
    if status:
        failures.append(f"figure suite: exit {status}")
    os.chdir(home)
    return failures


def main() -> int:
    started = time.perf_counter()
    probe = Probe()
    with tempfile.TemporaryDirectory() as scratch:
        failures = run_product(probe, Path(scratch))
    for line in failures:
        print(f"FAIL: {line}")
    defined = {(str(path), line): (path.relative_to(ROOT), qualname, lines)
               for path, line, qualname, lines in definitions()}
    sites = probe.sites()
    found = [(site[1],) + where for site, where in defined.items() if site not in sites]
    names = {qualname for _, _, qualname, _ in found}
    failed = bool(failures)
    for line, path, qualname, lines in found:
        if qualname not in ALLOWED:
            print(f"{path}:{line}: {qualname} ({lines} lines) got no call from CI's product commands")
            failed = True
    for qualname in sorted(set(ALLOWED) - names):
        if ALLOWED[qualname] in SOMETIMES:
            continue
        print(f"tools/reach.py: allow-list entry {qualname!r} got a call; remove it")
        failed = True
    print(f"{len(found)} definitions with no call, {len(ALLOWED)} allowed "
          f"({time.perf_counter() - started:.0f} s)")
    kept = sorted(defined[key[:2]][:2] + key[2:] for key in probe.unchanged() if key[:2] in defined)
    problems = keyword_problems(kept, scan().passed)
    print(f"{len(kept)} keywords of called definitions only ever took their defaults, "
          f"{len(KEYWORD_ALLOWED)} allowed")
    unset = unset_fields()
    problems += field_problems(unset)
    for line in problems:
        print(line)
    print(f"{len(unset)} config fields without a setter outside tests/, {len(UNSET_ALLOWED)} allow-list entries")
    return 1 if failed or problems else 0


if __name__ == "__main__":
    sys.exit(main())
