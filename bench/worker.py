"""Run one workload in this process; print one JSON document as the last line.

``run.py`` starts this file in a fresh, hermetic subprocess per workload.
Run shape: three times over, set-up plus the first round on it (``setup_s``
is the fastest of the three) → identical timed rounds until ``--seconds`` of
measured time have passed (rates use the fastest) → checks → teardown.
With ``--trace 1`` the same rounds run under the benchmark's timing wrappers
(see ``tracing.py``) and the document carries the per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import os
import resource
import sys
import time
from typing import List, Optional, Tuple

import spec
import tracing
import workloads

SETUP_REPEATS = 3
MIN_ROUNDS = 3
#: Workloads that get one extra round inside ``obs.observe(...)``.
OBS_WORKLOADS = ("exp-dense", "sim-soak")

#: Workload metrics a traced run repeats as ``e2e.<name>`` rows, taken from
#: its rounds with the wrappers off (the rates are ``throughput_per_s``).
E2E_ROWS = [name for name in spec.WORKLOAD_METRICS if not name.endswith("_per_s")]

_clock = time.perf_counter


class _DestroyedTaskCounter(logging.Handler):
    """Counts asyncio's "Task was destroyed but it is pending" reports.

    They become a number (``sockets.tasks_pending_at_close``) instead of
    stderr noise deciding what a run looks like.  At this commit two lanes
    racing through ``TcpTransport._get_conn`` each open a connection and
    the loser's pump task is orphaned, so the number is not zero.
    """

    def __init__(self) -> None:
        super().__init__(level=logging.ERROR)
        self.count = 0

    def emit(self, record: logging.LogRecord) -> None:
        if "Task was destroyed" in record.getMessage():
            self.count += 1
        else:
            sys.stderr.write(self.format(record) + "\n")


def measure(
    workload: workloads.Workload,
    seconds: float,
    min_rounds: int,
    tracer: Optional[tracing.Tracer] = None,
) -> Tuple[List[float], List[dict]]:
    """Timed rounds until ``seconds`` of measured time; reduction is untimed."""
    rounds: List[float] = []
    summaries: List[dict] = []
    while len(rounds) < min_rounds or sum(rounds) < seconds:
        gc.collect()
        if tracer is not None:
            tracer.round = len(rounds)
        started = _clock()
        raw = workload.round()
        rounds.append(_clock() - started)
        summaries.append(workload.reduce(raw))
        del raw
    return rounds, summaries


def set_up(
    workload: workloads.Workload,
    repeats: int,
    tracer: Optional[tracing.Tracer],
    checks: List[workloads.Check],
) -> List[float]:
    """Set-up plus the first round on it, ``repeats`` times; seconds of each.

    The first round on a fresh set-up pays for whatever the product builds
    lazily (close sets, first-use tables, and in the first repeat the
    imports), so it belongs to set-up: work moved out of the timed rounds
    shows here whether it moves into ``setup()`` or into first use.
    """
    samples: List[float] = []
    for attempt in range(repeats):
        if attempt:
            checks += workload.teardown()
        gc.collect()
        started = _clock()
        if tracer is not None:
            tracer.enabled = True
        workload.setup()
        if tracer is not None:
            tracer.enabled = False
        raw = workload.round()
        samples.append(_clock() - started)
        workload.reduce(raw)
        del raw
    return samples


def fastest(samples: List[float]) -> float:
    """The time the rates and ``setup_s`` are computed from.

    Identical rounds of identical work are slowed by whatever else the host
    does, never sped up, and on this sandbox the slow spells last seconds to
    minutes.  Over ten runs per workload the fastest round of a run spread
    (quartile distance / median) by 0.04–0.13, the median round by
    0.04–0.24, so the fastest is reported; every round is recorded.
    """
    return min(samples)


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool, scratch: str) -> dict:
    destroyed = _DestroyedTaskCounter()
    asyncio_log = logging.getLogger("asyncio")
    asyncio_log.addHandler(destroyed)
    asyncio_log.propagate = False

    benchmark = spec.load_benchmark()
    workload = workloads.make_workload(name, seed, smoke, scratch)
    tracer = tracing.Tracer() if trace else None
    min_rounds = 1 if smoke else MIN_ROUNDS
    checks: List[workloads.Check] = []
    doc = {"workload": name, "seed": seed, "trace": int(trace), "smoke": smoke}

    if tracer is None:
        setup_runs = set_up(workload, 1 if smoke else SETUP_REPEATS, None, checks)
        rounds, summaries = measure(workload, seconds, min_rounds)
        finish = workload.finish(summaries)
        checks += finish["checks"] + workload.teardown()
        metrics = _end_to_end(workload, finish, setup_runs, rounds, summaries)
    else:
        tracer.install()
        setup_runs = set_up(workload, 1, tracer, checks)
        base_rounds, base_summaries = measure(workload, seconds * 0.25, min(2, min_rounds))
        tracer.enabled = True
        rounds, summaries = measure(workload, seconds * 0.5, min(2, min_rounds), tracer)
        tracer.enabled = False
        obs_ratio = 0.0
        if name in OBS_WORKLOADS:
            obs_ratio = _observed_round(workload) / fastest(base_rounds)
        base_finish = workload.finish(base_summaries)
        finish = workload.finish(summaries)
        checks += base_finish["checks"] + finish["checks"] + workload.teardown()
        tracer.uninstall()
        metrics = dict.fromkeys(spec.per_layer(benchmark), 0.0)
        metrics.update(tracing.layer_metrics(tracer, len(rounds), sum(rounds)))
        metrics.update(finish["layer"])
        for row in E2E_ROWS:
            metrics[f"e2e.{row}"] = base_finish["metrics"].get(row, 0.0)
        metrics["trace.overhead_ratio"] = fastest(rounds) / fastest(base_rounds)
        metrics["obs.enabled_overhead_ratio"] = obs_ratio
        metrics["sockets.tasks_pending_at_close"] = (
            destroyed.count + workload.tasks_pending_at_close
        )
        doc["base_rounds_s"] = base_rounds
        os.makedirs(spec.OUT_DIR, exist_ok=True)
        path = os.path.join(spec.OUT_DIR, f"trace-{name}.jsonl")
        # Every span feeds the metrics; the file keeps set-up and the last
        # traced round, which is what a reader diffs.
        doc["trace_file"] = os.path.relpath(path, spec.ROOT)
        doc["trace_spans"] = tracer.write_jsonl(
            path, rounds=(tracing.SETUP_ROUND, len(rounds) - 1)
        )
        doc["layer_report"] = tracing.layer_report(tracer, len(rounds), sum(rounds))

    asyncio_log.removeHandler(destroyed)
    doc["tasks_destroyed_pending"] = destroyed.count
    units = spec.units(benchmark)
    doc.update(
        {
            "correct": all(ok for _, ok, _ in checks),
            "attempted": sum(s["attempted"] for s in summaries),
            "failed": sum(s["failed"] for s in summaries),
            "metrics": {
                key: {"value": float(value), "unit": units[key]}
                for key, value in metrics.items()
            },
            "checks": [
                {"name": check, "ok": ok, "detail": detail} for check, ok, detail in checks
            ],
            "digest": finish.get("digest"),
            "info": finish.get("info", {}),
            "work_unit": workload.work_unit,
            "work_per_round": summaries[-1]["work"],
            "rounds_s": rounds,
            "setup_runs_s": setup_runs,
        }
    )
    return doc


def _end_to_end(workload, finish, setup_runs, rounds, summaries) -> dict:
    rate = summaries[-1]["work"] / fastest(rounds)
    own = finish["metrics"]
    metrics = {
        "setup_s": fastest(setup_runs),
        "throughput_per_s": rate,
        # What the work was worth: MOS where calls carry audio, else the
        # share of operations that did not fail.
        "quality": own.get("mos_median", 1.0 - own.get("fail_share", 0.0)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        spec.rate_name(workload.name): rate,
    }
    metrics.update(own)
    return metrics


def _observed_round(workload) -> float:
    """Seconds of one round run inside ``obs.observe`` (wrappers off)."""
    from repro import obs

    gc.collect()
    with obs.observe(command="bench"):
        started = _clock()
        raw = workload.round()
        elapsed = _clock() - started
    workload.reduce(raw)
    return elapsed


def pin_to_one_cpu() -> None:
    """Keep this single-threaded process on one CPU.

    Measured on the 2-vCPU sandbox: left free, the scheduler moves the
    worker between CPUs and loopback-TCP wake-ups cross them, which made
    the fastest round of a run vary by ±10 % between runs; pinned, ±2 %.
    The highest-numbered allowed CPU, because interrupts land on CPU 0.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--scratch", required=True, help="existing directory for temp files")
    args = parser.parse_args(argv)
    pin_to_one_cpu()
    doc = run(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke, args.scratch
    )
    sys.stdout.write(json.dumps(doc) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
