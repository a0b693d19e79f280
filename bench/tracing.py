"""Benchmark-owned tracing: timing wrappers around public product calls.

The traced run installs wrappers (see :data:`FUNCTIONS`, :data:`METHODS`)
around the product's documented entry points, keeps one span per call in
memory, and derives per-layer *self time* — a span's busy time minus the
busy time of the spans that ran inside it.  Nothing under ``src/`` knows
about this module; every patched attribute is restored by
:meth:`Tracer.uninstall`.

Async calls are timed step by step: a coroutine is *busy* only between
two suspension points, so time it spends parked on the event loop (while
other tasks run) is charged to whatever runs then, not to the waiter.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from typing import Callable, Dict, Iterable, List, Optional

_clock = time.perf_counter

# Span record layout (a list, mutated in place while the span is open).
NAME, LAYER, START, END, PARENT, ROUND, BUSY, CHILD, UNITS = range(9)

#: Round number of spans recorded during set-up.
SETUP_ROUND = -1


def _units_size(result):
    return int(result.size)


def _units_entries(result):
    return len(result.entries)


def _units_matrix_cells(result):
    return int(result.rtt_ms.size)


def _units_quality_paths(result):
    return result.quality_paths


#: Module-level functions to wrap: (module, function, span name, layer,
#: units).  Every loaded module that imported the function by name is
#: patched too (``net.loopback`` / ``net.sockets`` import the codec so).
FUNCTIONS = (
    ("repro.scenario", "build_scenario", "scenario.build", "scenario", None),
    ("repro.topology.generator", "generate_topology", "topology.generate", "topology", None),
    ("repro.measurement.matrix", "compute_delegate_matrices", "matrix.fill", "matrix",
     _units_matrix_cells),
    ("repro.evaluation.sessions", "generate_workload", "workload.generate", "workload", None),
    ("repro.evaluation.section7", "run_section7", "section7.run", "section7", None),
    ("repro.core.relay_selection", "select_close_relay", "selection.select", "selection", None),
    ("repro.net.codec", "encode_frame", "codec.encode", "codec", len),
    ("repro.net.codec", "decode_frame", "codec.decode", "codec", None),
    ("repro.media.score", "score_trace", "media.score", "media", None),
    ("repro.media.session", "run_media_session", "media.session", "media", None),
)

#: Methods to wrap: (module, class, method, span name, layer, units, async).
METHODS = (
    ("repro.worldarrays.virtual", "VirtualMatrices", "ensure_spilled", "stream.sweep", "stream",
     None, False),
    ("repro.worldarrays.virtual", "VirtualMatrices", "gather_rtt", "stream.gather", "stream",
     _units_size, False),
    ("repro.worldarrays.virtual", "VirtualMatrices", "gather_loss", "stream.gather", "stream",
     _units_size, False),
    ("repro.storage.columns", "ColumnStore", "complete", "columns.complete", "columns",
     None, False),
    ("repro.storage.columns", "ColumnStore", "load", "columns.load", "columns", None, False),
    # ASAPSystem.close_set and ASAPSystem.call both resolve through the
    # surrogate, so this one wrapper sees every close-set request.
    ("repro.core.surrogate", "Surrogate", "close_set", "closesets.request", "closesets",
     None, False),
    ("repro.worldarrays.closesets", "FlatCloseSetBuilder", "build", "closesets.build",
     "closesets", _units_entries, False),
    ("repro.worldarrays.closesets", "FlatCloseSetBuilder", "build_many", "closesets.build_many",
     "closesets", None, False),
    ("repro.core.protocol", "ASAPSystem", "call", "asap.call", "asap",
     _units_quality_paths, False),
    ("repro.evaluation.policies", "ASAPPolicy", "evaluate_sessions", "policy.ASAP", "policy",
     None, False),
    ("repro.baselines.opt", "OPTMethod", "evaluate_sessions", "policy.OPT", "policy",
     None, False),
    ("repro.baselines.dedi", "DEDIMethod", "evaluate_sessions", "policy.DEDI", "policy",
     None, False),
    ("repro.baselines.rand", "RANDMethod", "evaluate_sessions", "policy.RAND", "policy",
     None, False),
    ("repro.baselines.mix", "MIXMethod", "evaluate_sessions", "policy.MIX", "policy",
     None, False),
    ("repro.core.runtime", "ASAPRuntime", "run", "runtime.run", "runtime", None, False),
    ("repro.sim.network", "SimNetwork", "request", "simnet.request", "simnet", None, False),
    ("repro.sim.network", "SimNetwork", "send", "simnet.send", "simnet", None, False),
    ("repro.control.directory", "ShardedDirectory", "join", "directory.join", "directory",
     None, False),
    ("repro.control.directory", "ShardedDirectory", "leave", "directory.leave", "directory",
     None, False),
    ("repro.control.directory", "ShardedDirectory", "resolve", "directory.resolve", "directory",
     None, False),
    ("repro.control.directory", "ShardedDirectory", "sweep", "directory.sweep", "directory",
     None, False),
    ("repro.control.maintainer", "CloseSetMaintainer", "drain", "maintainer.drain",
     "maintainer", None, False),
    ("repro.net.codec", "FrameDecoder", "feed", "codec.feed", "codec", len, False),
    ("repro.net.loopback", "LoopbackTransport", "request", "loopback.request", "loopback",
     None, True),
    ("repro.net.loopback", "LoopbackTransport", "send", "loopback.send", "loopback",
     None, True),
    # The hub's dispatcher and its scheduling primitives are the other
    # half of the loopback layer (virtual clock, parked-task accounting).
    ("repro.net.loopback", "LoopbackHub", "run", "loopback.dispatch", "loopback", None, True),
    ("repro.net.loopback", "LoopbackHub", "sleep_ms", "loopback.sleep", "loopback", None, True),
    ("repro.net.loopback", "LoopbackHub", "gather", "loopback.gather", "loopback", None, True),
    ("repro.net.sockets", "TcpTransport", "request", "sockets.request", "sockets", None, True),
    ("repro.net.sockets", "TcpTransport", "send", "sockets.send", "sockets", None, True),
    ("repro.net.sockets", "TcpTransport", "close", "sockets.close", "sockets", None, True),
    ("repro.service.host", "HostAgent", "dial", "host.dial", "host", None, True),
    ("repro.service.host", "HostAgent", "join", "host.join", "host", None, True),
    # The loopback hub asks the ground-truth model for every delivery's
    # RTT; without this span that cost would read as hub time.
    ("repro.measurement.latency", "LatencyModel", "host_rtt_ms", "latency.host_rtt",
     "latency", None, False),
    ("repro.media.jitterbuf", "AdaptiveJitterBuffer", "play", "media.playout", "media",
     None, False),
)


class _Stepper:
    """Awaitable that drives a coroutine and times each of its steps."""

    __slots__ = ("_tracer", "_coro", "_index")

    def __init__(self, tracer: "Tracer", coro, index: int) -> None:
        self._tracer = tracer
        self._coro = coro
        self._index = index

    def __await__(self):
        tracer, index = self._tracer, self._index
        inner = self._coro.__await__()
        value = None
        error: Optional[BaseException] = None
        while True:
            started = tracer.step_in(index)
            try:
                if error is None:
                    yielded = inner.send(value)
                else:
                    yielded = inner.throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                tracer.step_out(index, started)
            try:
                value = yield yielded
                error = None
            except BaseException as exc:  # cancellation or close(): forward it
                value, error = None, exc


class Tracer:
    """In-memory span recorder plus the patch table that feeds it."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.enabled = False
        self.round = SETUP_ROUND
        self._stack: List[int] = []
        self._patches: List[tuple] = []

    # -- recording ---------------------------------------------------------

    def begin(self, name: str, layer: str) -> int:
        """Open a span; its parent is whatever span is executing now."""
        parent = self._stack[-1] if self._stack else -1
        now = _clock()
        self.spans.append([name, layer, now, now, parent, self.round, 0.0, 0.0, 0])
        return len(self.spans) - 1

    def step_in(self, index: int) -> float:
        self._stack.append(index)
        return _clock()

    def step_out(self, index: int, started: float) -> None:
        now = _clock()
        elapsed = now - started
        span = self.spans[index]
        span[BUSY] += elapsed
        span[END] = now
        self._stack.pop()
        if self._stack:
            self.spans[self._stack[-1]][CHILD] += elapsed

    def wrap_sync(self, fn: Callable, name: str, layer: str, units=None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            index = tracer.begin(name, layer)
            started = tracer.step_in(index)
            try:
                result = fn(*args, **kwargs)
                if units is not None:
                    tracer.spans[index][UNITS] = units(result)
                return result
            finally:
                tracer.step_out(index, started)

        wrapper.__bench_original__ = fn
        return wrapper

    def wrap_async(self, fn: Callable, name: str, layer: str) -> Callable:
        tracer = self

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return await fn(*args, **kwargs)
            return await _Stepper(tracer, fn(*args, **kwargs), tracer.begin(name, layer))

        wrapper.__bench_original__ = fn
        return wrapper

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Patch every table entry (idempotent per tracer)."""
        if self._patches:
            return
        for module_name, fn_name, span, layer, units in FUNCTIONS:
            module = importlib.import_module(module_name)
            original = getattr(module, fn_name)
            wrapped = self.wrap_sync(original, span, layer, units)
            for holder in list(sys.modules.values()):
                if getattr(holder, "__dict__", {}).get(fn_name) is original:
                    self._patch(holder, fn_name, wrapped)
        for module_name, cls_name, method, span, layer, units, is_async in METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            original = cls.__dict__[method]
            if is_async:
                wrapped = self.wrap_async(original, span, layer)
            else:
                wrapped = self.wrap_sync(original, span, layer, units)
            self._patch(cls, method, wrapped)
        self._patch_handler_registration()

    def _patch_handler_registration(self) -> None:
        """Wrap service handlers where they are registered."""
        from repro.service.node import ServiceNode

        tracer = self
        original = ServiceNode.__dict__["handle"]

        @functools.wraps(original)
        def handle(node, message_type, handler):
            wrapped = tracer.wrap_async(
                handler, f"service.{message_type.__name__}", "service"
            )
            return original(node, message_type, wrapped)

        self._patch(ServiceNode, "handle", handle)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------

    def write_jsonl(self, path: str, rounds: Optional[Iterable[int]] = None) -> int:
        """Write spans as JSON lines; ``rounds`` limits which rounds."""
        keep = None if rounds is None else set(rounds)
        written = 0
        with open(path, "w", encoding="utf-8") as out:
            for index, span in enumerate(self.spans):
                if keep is not None and span[ROUND] not in keep:
                    continue
                out.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": span[NAME],
                            "layer": span[LAYER],
                            "start": span[START],
                            "end": span[END],
                            "parent": span[PARENT],
                            "round": span[ROUND],
                            "busy": span[BUSY],
                            "self": span[BUSY] - span[CHILD],
                        }
                    )
                )
                out.write("\n")
                written += 1
        return written


class SpanStats:
    """Per-span-name aggregates over a set of rounds."""

    def __init__(self, tracer: Tracer, rounds: Iterable[int]) -> None:
        keep = set(rounds)
        self.count: Dict[str, int] = {}
        self.busy: Dict[str, float] = {}
        self.self_s: Dict[str, float] = {}
        self.units: Dict[str, float] = {}
        self.durations: Dict[str, List[float]] = {}
        self.layer_self: Dict[str, float] = {}
        self.layer_calls: Dict[str, int] = {}
        for span in tracer.spans:
            if span[ROUND] not in keep:
                continue
            name = span[NAME]
            own = span[BUSY] - span[CHILD]
            self.count[name] = self.count.get(name, 0) + 1
            self.busy[name] = self.busy.get(name, 0.0) + span[BUSY]
            self.self_s[name] = self.self_s.get(name, 0.0) + own
            self.units[name] = self.units.get(name, 0) + span[UNITS]
            self.durations.setdefault(name, []).append(span[BUSY])
            self.layer_self[span[LAYER]] = self.layer_self.get(span[LAYER], 0.0) + own
            self.layer_calls[span[LAYER]] = self.layer_calls.get(span[LAYER], 0) + 1

    def counts(self, *names: str) -> int:
        return sum(self.count.get(name, 0) for name in names)

    def busy_s(self, *names: str) -> float:
        return sum(self.busy.get(name, 0.0) for name in names)

    def own_s(self, *names: str) -> float:
        return sum(self.self_s.get(name, 0.0) for name in names)

    def unit_sum(self, *names: str) -> float:
        return sum(self.units.get(name, 0) for name in names)


def layer_metrics(tracer: Tracer, traced_rounds: int, traced_wall_s: float) -> Dict[str, float]:
    """The per-layer metrics a traced run derives from its spans.

    Counts and seconds are per traced round; set-up rows come from the
    spans recorded while the workload was set up.  ``*_s`` rows are self
    time unless the README table says inclusive.
    """
    setup = SpanStats(tracer, [SETUP_ROUND])
    run = SpanStats(tracer, range(traced_rounds))
    rounds = max(1, traced_rounds)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    def calls(*names: str) -> float:
        return run.counts(*names) / rounds

    def own(*names: str) -> float:
        return run.own_s(*names) / rounds

    def busy(*names: str) -> float:
        return run.busy_s(*names) / rounds

    def layer_own(layer: str) -> float:
        return run.layer_self.get(layer, 0.0) / rounds

    asap_ms = [1000.0 * seconds for seconds in run.durations.get("asap.call", [])]
    asap_paths = [
        span[UNITS]
        for span in tracer.spans
        if span[NAME] == "asap.call" and span[ROUND] >= 0 and span[UNITS] > 0
    ]
    asap_ms.sort()
    asap_paths.sort()

    def quantile(ordered: List[float], q: float) -> float:
        if not ordered:
            return 0.0
        return float(ordered[min(len(ordered) - 1, int(q * len(ordered)))])

    metrics = {
        # set-up (inclusive seconds)
        "scenario.build_s": setup.busy_s("scenario.build"),
        "topology.generate_s": setup.busy_s("topology.generate"),
        "matrix.fill_s": setup.busy_s("matrix.fill"),
        "matrix.cells_per_s": ratio(
            setup.unit_sum("matrix.fill"), setup.busy_s("matrix.fill")
        ),
        "stream.sweep_s": setup.busy_s("stream.sweep"),
        # streamed substrate
        "stream.gather_calls": calls("stream.gather"),
        "stream.gather_s": own("stream.gather"),
        "stream.cells_per_gather": ratio(
            run.unit_sum("stream.gather"), run.counts("stream.gather")
        ),
        "columns.complete_calls": calls("columns.complete"),
        "columns.complete_s": own("columns.complete"),
        "columns.load_calls": calls("columns.load"),
        "columns.load_s": own("columns.load"),
        # close sets and selection
        "closesets.requests": calls("closesets.request"),
        "closesets.builds": calls("closesets.build"),
        "closesets.build_s": busy("closesets.build"),
        "closesets.self_s": layer_own("closesets"),
        "closesets.entries_per_build": ratio(
            run.unit_sum("closesets.build"), run.counts("closesets.build")
        ),
        "closesets.hit_ratio": (
            1.0 - ratio(run.counts("closesets.build"), run.counts("closesets.request"))
            if run.counts("closesets.request")
            else 0.0
        ),
        "selection.calls": calls("selection.select"),
        "selection.self_s": own("selection.select"),
        "asap.calls": calls("asap.call"),
        "asap.self_s": own("asap.call"),
        "asap.call_ms_p50": quantile(asap_ms, 0.50),
        "asap.call_ms_p95": quantile(asap_ms, 0.95),
        "asap.quality_paths_median": quantile(asap_paths, 0.50),
        # Section-7 policies (inclusive seconds per policy)
        "policy.ASAP_s": busy("policy.ASAP"),
        "policy.OPT_s": busy("policy.OPT"),
        "policy.DEDI_s": busy("policy.DEDI"),
        "policy.RAND_s": busy("policy.RAND"),
        "policy.MIX_s": busy("policy.MIX"),
        "policy.asap_over_opt": ratio(run.busy_s("policy.ASAP"), run.busy_s("policy.OPT")),
        "workload.gen_s": busy("workload.generate"),
        "section7.self_s": own("section7.run"),
        # simulated runtime and control plane
        "runtime.run_s": busy("runtime.run"),
        "runtime.self_s": own("runtime.run"),
        "simnet.messages": calls("simnet.request", "simnet.send"),
        "simnet.self_s": layer_own("simnet"),
        "directory.ops": run.layer_calls.get("directory", 0) / rounds,
        "directory.self_s": layer_own("directory"),
        "maintainer.drain_s": busy("maintainer.drain"),
        # wire
        "codec.encodes": calls("codec.encode"),
        "codec.encode_s": own("codec.encode"),
        "codec.decodes": (run.counts("codec.decode") + run.unit_sum("codec.feed")) / rounds,
        "codec.decode_s": own("codec.decode", "codec.feed"),
        "codec.bytes_per_msg": ratio(
            run.unit_sum("codec.encode"), run.counts("codec.encode")
        ),
        "loopback.self_s": layer_own("loopback"),
        "sockets.requests": calls("sockets.request", "sockets.send"),
        "sockets.self_s": layer_own("sockets"),
        "service.handler_calls": run.layer_calls.get("service", 0) / rounds,
        "service.handler_self_s": layer_own("service"),
        "host.self_s": layer_own("host"),
        "latency.host_rtt_calls": calls("latency.host_rtt"),
        "latency.host_rtt_s": own("latency.host_rtt"),
        # media
        "media.session_s": busy("media.session"),
        "media.playout_s": own("media.playout"),
        "media.score_s": own("media.score"),
        "trace.unattributed_share": max(
            0.0, 1.0 - ratio(sum(run.layer_self.values()), traced_wall_s)
        ),
    }
    return metrics


def layer_report(tracer: Tracer, traced_rounds: int, traced_wall_s: float) -> List[str]:
    """Layers sorted by self time, with their share of the measured region."""
    run = SpanStats(tracer, range(traced_rounds))
    lines = [f"{'layer':<12} {'self_s/round':>13} {'share':>7} {'spans/round':>12}"]
    rounds = max(1, traced_rounds)
    for layer, seconds in sorted(run.layer_self.items(), key=lambda item: -item[1]):
        share = seconds / traced_wall_s if traced_wall_s else 0.0
        lines.append(
            f"{layer:<12} {seconds / rounds:>13.4f} {share:>6.1%} "
            f"{run.layer_calls[layer] / rounds:>12.0f}"
        )
    attributed = sum(run.layer_self.values())
    unattributed = max(0.0, traced_wall_s - attributed)
    share = unattributed / traced_wall_s if traced_wall_s else 0.0
    lines.append(f"{'(no span)':<12} {unattributed / rounds:>13.4f} {share:>6.1%}")
    return lines
