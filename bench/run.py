#!/usr/bin/env python3
"""The one benchmark for all five planes.

    python3 bench/run.py                         # all six workloads, results JSON
    python3 bench/run.py --workload wire-tcp --seed 3
    python3 bench/run.py --trace                 # per-layer numbers + reports
    python3 bench/run.py --smoke                 # tiny world, seconds not minutes
    python3 bench/run.py --compare A.json B.json # regression gate

Every workload runs in its own fresh, hermetic subprocess, one at a time.
With exactly one ``--workload`` the last line of standard output is the
driver's result object (``correct``, ``attempted``, ``failed``,
``metrics``); see BENCHMARK.json and bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from typing import Dict, List, Optional

import compare
import spec

#: Environment that would change what the product does, removed for runs.
_SCRUBBED = ("REPRO_WORKERS", "REPRO_CACHE_DIR", "REPRO_FLAT_WORLD")
#: A worker that has not finished by then is killed (the driver's cap is 180 s).
_WORKER_TIMEOUT_S = 170


def _hermetic_env(scratch: str) -> Dict[str, str]:
    env = {key: value for key, value in os.environ.items() if key not in _SCRUBBED}
    source = os.path.join(spec.ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [source] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = scratch
    return env


def run_worker(name: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    """One workload in a fresh subprocess; returns its document.

    Raises ``RuntimeError`` when the worker dies, times out, prints no
    document, or leaves files behind in its scratch directory.
    """
    os.makedirs(spec.OUT_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="scratch-", dir=spec.OUT_DIR)
    command = [
        sys.executable,
        os.path.join(spec.BENCH_DIR, "worker.py"),
        "--workload", name,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--scratch", scratch,
    ] + (["--smoke"] if smoke else [])
    try:
        done = subprocess.run(
            command,
            cwd=spec.ROOT,
            env=_hermetic_env(scratch),
            stdout=subprocess.PIPE,
            timeout=_WORKER_TIMEOUT_S,
            check=False,
        )
        leftovers = sorted(os.listdir(scratch))
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise RuntimeError(f"{name}: no result within {_WORKER_TIMEOUT_S} s") from exc
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if done.returncode != 0:
        raise RuntimeError(f"{name}: worker exited with code {done.returncode}")
    lines = done.stdout.decode("utf-8", "replace").strip().splitlines()
    if not lines:
        raise RuntimeError(f"{name}: worker printed no result")
    doc = json.loads(lines[-1])
    doc["checks"].append(
        {
            "name": "no temp file survives the run",
            "ok": not leftovers,
            "detail": ", ".join(leftovers) or "scratch directory empty",
        }
    )
    doc["correct"] = doc["correct"] and not leftovers
    return doc


def result_line(doc: dict, benchmark: dict) -> str:
    """The driver's result object: exactly the metrics BENCHMARK.json names."""
    names = spec.per_layer(benchmark) if doc["trace"] else spec.end_to_end(benchmark)
    return json.dumps(
        {
            "correct": bool(doc["correct"]),
            "attempted": int(doc["attempted"]),
            "failed": int(doc["failed"]),
            "metrics": {name: doc["metrics"][name] for name in names},
        }
    )


def print_workload(doc: dict, benchmark: dict) -> None:
    name = doc["workload"]
    rounds = doc["rounds_s"]
    print(f"== {name}  seed={doc['seed']}  rounds={len(rounds)}  "
          f"fastest round {min(rounds):.3f} s  "
          f"({doc['work_per_round']} {doc['work_unit']} per round)")
    shown = spec.per_layer(benchmark) if doc["trace"] else spec.metrics_of(name, benchmark)
    for metric in shown:
        entry = doc["metrics"].get(metric)
        if entry is None:
            continue
        if doc["trace"] and entry["value"] == 0:
            continue  # a layer that does nothing here
        print(f"  {metric:<34} {entry['value']:>16.6g} {entry['unit']}")
    print(f"  {'attempted / failed':<34} {doc['attempted']:>10} / {doc['failed']}")
    if doc.get("digest"):
        print(f"  {'digest':<34} {doc['digest']}")
    for line in doc.get("layer_report", ()):
        print(f"  | {line}")
    if doc.get("trace_file"):
        print(f"  spans: {doc['trace_file']} ({doc['trace_spans']} lines)")
    for check in doc["checks"]:
        if not check["ok"]:
            print(f"  CHECK FAILED: {check['name']}: {check['detail']}")


def _git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=spec.ROOT, capture_output=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.decode().strip() if done.returncode == 0 else "unknown"


def envelope(args) -> dict:
    """The machine the numbers were taken on."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    return {
        "commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "loadavg_1min_at_start": os.getloadavg()[0],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": int(args.trace),
        "smoke": args.smoke,
    }


def parity_check(results: Dict[str, dict]) -> Optional[dict]:
    """exp-dense and exp-stream evaluate the same leading sessions."""
    dense, stream = results.get("exp-dense"), results.get("exp-stream")
    if dense is None or stream is None or dense["seed"] != stream["seed"]:
        return None
    same = dense["digest"] == stream["digest"]
    return {
        "name": "exp-dense and exp-stream digests are equal",
        "ok": same,
        "detail": f"{dense['digest']} vs {stream['digest']}",
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", action="append", help="repeatable; default: all six")
    parser.add_argument("--seed", type=int, default=0, help="seeds the generated inputs")
    parser.add_argument("--seconds", type=float, help="measured time per run "
                        "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        help="traced run: per-layer metrics instead of end-to-end")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny world, one timed round per workload")
    parser.add_argument("--out", help="results JSON (default: bench/out/results.json)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two results files against the bounds")
    args = parser.parse_args(argv)

    benchmark = spec.load_benchmark()
    if args.compare:
        return compare.main(args.compare[0], args.compare[1], benchmark)
    if not os.path.isdir(os.path.join(spec.ROOT, "src", "repro")):
        print("bench: src/repro not found next to bench/ — nothing to measure",
              file=sys.stderr)
        return 2

    known = spec.workload_names(benchmark)
    selected = args.workload or known
    for name in selected:
        if name not in known:
            parser.error(f"unknown workload {name!r}; choose from {', '.join(known)}")
    if args.seconds is None:
        args.seconds = 0.0 if args.smoke else float(benchmark["run_seconds"])

    document = {"envelope": envelope(args), "workloads": {}, "checks": []}
    ok = True
    for name in selected:
        try:
            doc = run_worker(name, args.seed, args.seconds, args.trace, args.smoke)
        except RuntimeError as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 1
        document["workloads"][name] = doc
        print_workload(doc, benchmark)
        ok = ok and doc["correct"]
    parity = parity_check(document["workloads"])
    if parity is not None:
        document["checks"].append(parity)
        print(f"== parity: {parity['name']}: {'ok' if parity['ok'] else 'FAILED'}")
        ok = ok and parity["ok"]

    out = args.out or os.path.join(spec.OUT_DIR, "results.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"results: {os.path.relpath(out)}")
    if len(selected) == 1:
        print(result_line(document["workloads"][selected[0]], benchmark))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
