"""What the benchmark measures: BENCHMARK.json plus the workloads' own metrics.

``BENCHMARK.json`` names the metrics every workload reports (the driver's
contract: one list of end-to-end metrics for all workloads, one list of
per-layer metrics).  Several user-visible numbers exist on some workloads
only — a MOS has no meaning on ``wire-tcp`` — so they cannot be in that
list; :data:`WORKLOAD_METRICS` names them, with their bounds, and
``run.py`` prints, records and ``--compare``s them next to the common ones.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")

EXP = ("exp-dense", "exp-stream")
ALL = EXP + ("sim-soak", "wire-dial", "wire-tcp", "media-calls")

#: name -> (unit, better, bound, "rel" | "abs", workloads reporting it).
#: The four rate names are each workload's own word for
#: ``throughput_per_s`` and carry its bound; ``rel`` bounds are a share of
#: the baseline value, ``abs`` bounds a plain difference.
WORKLOAD_METRICS: Dict[str, Tuple[str, str, float, str, Tuple[str, ...]]] = {
    "sessions_per_s": ("1/s", "higher", 0.25, "rel", EXP),
    "calls_per_s": ("1/s", "higher", 0.25, "rel", ("sim-soak", "wire-dial")),
    "rpcs_per_s": ("1/s", "higher", 0.25, "rel", ("wire-tcp",)),
    "frames_per_s": ("1/s", "higher", 0.25, "rel", ("media-calls",)),
    # Virtual-clock times are exact per seed: an added round trip shows,
    # a faster CPU does not.
    "call_setup_ms_p50": ("virtual_ms", "lower", 0.01, "rel", ("sim-soak", "wire-dial")),
    "call_setup_ms_p90": ("virtual_ms", "lower", 0.01, "rel", ("sim-soak",)),
    "rpc_ms_p50": ("ms", "lower", 0.25, "rel", ("wire-tcp",)),
    "rpc_ms_p90": ("ms", "lower", 0.25, "rel", ("wire-tcp",)),
    "mos_median": ("MOS", "higher", 0.01, "abs", EXP + ("wire-dial", "media-calls")),
    "fail_share": ("share", "lower", 0.001, "abs", ALL),
}


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def workload_names(doc: dict) -> List[str]:
    return [entry["name"] for entry in doc["workloads"]]


def end_to_end(doc: dict) -> Dict[str, dict]:
    return {entry["name"]: entry for entry in doc["end_to_end"]}


def per_layer(doc: dict) -> Dict[str, dict]:
    return {entry["name"]: entry for entry in doc["per_layer"]}


def rate_name(workload: str) -> str:
    """The workload's own name for ``throughput_per_s``."""
    return next(
        name
        for name, entry in WORKLOAD_METRICS.items()
        if name.endswith("_per_s") and workload in entry[4]
    )


def units(doc: dict) -> Dict[str, str]:
    """Unit of every metric a run can report."""
    table = {entry["name"]: entry["unit"] for entry in doc["end_to_end"] + doc["per_layer"]}
    table.update({name: entry[0] for name, entry in WORKLOAD_METRICS.items()})
    return table


def metrics_of(workload: str, doc: dict) -> List[str]:
    """Every end-to-end metric name a workload's untraced run reports."""
    own = [name for name, spec in WORKLOAD_METRICS.items() if workload in spec[4]]
    return list(end_to_end(doc)) + own
