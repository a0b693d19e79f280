"""The unified experiment engine: one API from tiny to a million hosts.

:class:`Experiment` runs the complete Section-7 pipeline —

    build world → sweep/spill columns → generate workload →
    evaluate policies → reduce aggregates —

behind one config, with two interchangeable substrates:

- **dense** (small tiers): the scenario materializes its N×N delegate
  matrices exactly as before, artifact-cache aware;
- **streamed** (large tiers): the scenario gets a
  :class:`~repro.worldarrays.virtual.VirtualMatrices` view instead —
  columns are assembled on demand by the flat fill (grouped by
  destination AS, the unit the one-way memo amortizes) and spilled to a
  chunked :class:`~repro.storage.columns.ColumnStore`, so the dense
  arrays never exist.  Every consumer reads through the same
  cell/gather/block protocol, which is why the two substrates produce
  bit-identical experiment results.

Each run times its stages and policies, snapshots peak RSS, and
annotates them on the run manifest.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Sequence, Union

from repro import obs
from repro.core.config import ASAPConfig, derive_k_hops, require_count
from repro.errors import ConfigurationError
from repro.evaluation.policies import METHOD_NAMES, default_policies
from repro.evaluation.section7 import Section7Result, run_section7
from repro.evaluation.sessions import generate_workload
from repro.scenario import (
    SCALES,
    Scenario,
    ScenarioConfig,
    build_scenario,
    build_scenario_from_topology,
)
from repro.storage.cache import scenario_cache_key
from repro.storage.columns import ColumnStore
from repro.topology.generator import generate_topology
from repro.worldarrays.virtual import VirtualMatrices

__all__ = [
    "Experiment",
    "ExperimentConfig",
    "ExperimentReport",
    "STREAM_SCALES",
    "run_experiment",
]

#: Tiers whose dense matrices exceed sensible memory — streamed by default.
STREAM_SCALES = ("100k", "1m")


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    """Everything one experiment run needs, in one place.

    ``stream=None`` picks the substrate by tier (:data:`STREAM_SCALES`);
    forcing ``True``/``False`` overrides it (the parity suite runs both
    on the same tier).  ``spill_dir=None`` spills to an ephemeral
    temporary directory that is removed after the run; a concrete path
    makes the column store persistent and the run resumable — a rerun
    reuses every chunk already on disk.
    """

    scale: str = "small"
    seed: int = 0
    session_count: int = 2000
    latent_target: int = 60
    max_latent_sessions: Optional[int] = None
    methods: Sequence[str] = METHOD_NAMES
    stream: Optional[bool] = None
    spill_dir: Optional[Union[str, Path]] = None
    chunk_columns: int = 256

    def __post_init__(self) -> None:
        if self.scale not in SCALES:
            raise ConfigurationError(
                f"unknown scale {self.scale!r}; choose from {SCALES}"
            )
        require_count("seed", self.seed, 0)
        require_count("session_count", self.session_count, 1)
        require_count("latent_target", self.latent_target, 0)
        require_count("chunk_columns", self.chunk_columns, 1)
        unknown = set(self.methods) - set(METHOD_NAMES)
        if unknown:
            raise ConfigurationError(
                f"unknown methods {sorted(unknown)}; choose from {METHOD_NAMES}"
            )

    @property
    def streamed(self) -> bool:
        if self.stream is not None:
            return self.stream
        return self.scale in STREAM_SCALES


@dataclass
class ExperimentReport:
    """One finished run: results plus the run's own accounting."""

    config: ExperimentConfig
    result: Section7Result
    population: int
    clusters: int
    stage_seconds: Dict[str, float]
    policy_seconds: Dict[str, float]
    peak_rss_kb: int
    derived_k_hops: int
    spill: Optional[dict] = None

    @property
    def streamed(self) -> bool:
        return self.config.streamed

    @property
    def dense_bytes(self) -> int:
        """Footprint of the three dense N×N arrays this run would have
        needed without streaming (rtt + loss float64, hops int64)."""
        return 3 * self.clusters * self.clusters * 8


class _TimedPolicy:
    """Wraps a policy to account its evaluation wall-clock per name."""

    def __init__(self, inner, sink: Dict[str, float]) -> None:
        self._inner = inner
        self._sink = sink
        self.name = inner.name

    def evaluate_sessions(self, world, sessions, *, session_ids=None):
        started = time.perf_counter()
        out = self._inner.evaluate_sessions(world, sessions, session_ids=session_ids)
        self._sink[self.name] = (
            self._sink.get(self.name, 0.0) + time.perf_counter() - started
        )
        return out


class Experiment:
    """One configured experiment, runnable end to end."""

    def __init__(self, config: Optional[ExperimentConfig] = None, **overrides) -> None:
        if config is None:
            config = ExperimentConfig(**overrides)
        elif overrides:
            raise ConfigurationError("pass either a config or keyword overrides")
        self.config = config

    def run(self) -> ExperimentReport:
        config = self.config
        stage_seconds: Dict[str, float] = {}
        policy_seconds: Dict[str, float] = {}
        timeline = obs.timeline()
        run_t0 = time.perf_counter()

        def mark_stage(stage: str, seconds: float, rows: Optional[int] = None) -> None:
            # Machine-timing samples: stamped on the wall clock and
            # flagged ``wall`` so the byte-stability contract skips them.
            if not timeline:
                return
            at_ms = (time.perf_counter() - run_t0) * 1000.0
            timeline.sample(
                "engine.stage_seconds", at_ms, seconds, wall=True, stage=stage
            )
            if rows is not None and seconds > 0:
                timeline.sample(
                    "engine.rows_per_s", at_ms, rows / seconds, wall=True, stage=stage
                )

        # Owned here, not by the build: the ``finally`` below must cover a
        # build that raises after the directory exists.
        ephemeral_spill: Optional[Path] = None
        if config.streamed and config.spill_dir is None:
            ephemeral_spill = Path(tempfile.mkdtemp(prefix="repro-columns-"))
        try:
            with obs.span("experiment.run"):
                started = time.perf_counter()
                if config.streamed:
                    scenario = self._build_streamed(
                        ephemeral_spill or Path(config.spill_dir)
                    )
                else:
                    scenario = build_scenario(
                        ScenarioConfig.preset(config.scale, config.seed)
                    )
                    _ = scenario.matrices  # materialize inside the build stage
                stage_seconds["build"] = time.perf_counter() - started
                mark_stage("build", stage_seconds["build"])

                view = scenario.matrix_view()
                started = time.perf_counter()
                if config.streamed:
                    view.ensure_spilled()
                stage_seconds["sweep"] = time.perf_counter() - started
                mark_stage("sweep", stage_seconds["sweep"], rows=view.count)

                started = time.perf_counter()
                workload = generate_workload(
                    scenario,
                    config.session_count,
                    seed=config.seed,
                    latent_target=config.latent_target,
                )
                stage_seconds["workload"] = time.perf_counter() - started
                mark_stage(
                    "workload", stage_seconds["workload"], rows=len(workload.sessions)
                )

                started = time.perf_counter()
                asap_config = ASAPConfig(k_hops=derive_k_hops(view))
                policies = [
                    _TimedPolicy(policy, policy_seconds)
                    for policy in default_policies(
                        scenario,
                        methods=config.methods,
                        asap_config=asap_config,
                    )
                ]
                result = run_section7(
                    scenario,
                    seed=config.seed,
                    asap_config=asap_config,
                    workload=workload,
                    max_latent_sessions=config.max_latent_sessions,
                    policies=policies,
                )
                stage_seconds["evaluate"] = time.perf_counter() - started
                mark_stage(
                    "evaluate",
                    stage_seconds["evaluate"],
                    rows=config.session_count * len(policies),
                )

                started = time.perf_counter()
                for summary in result.summaries():
                    obs.gauge(f"experiment.mos_median.{summary.method}").set(
                        summary.mos_median
                    )
                stage_seconds["reduce"] = time.perf_counter() - started
                mark_stage("reduce", stage_seconds["reduce"])

                spill = None
                if config.streamed:
                    stored, total = view.store.chunk_count()
                    spill = {
                        "dir": None if ephemeral_spill else str(view.store.root),
                        "ephemeral": ephemeral_spill is not None,
                        "chunks": stored,
                        "chunk_total": total,
                        "bytes": view.store.stored_bytes(),
                    }
                peak_rss = _peak_rss_kb()
                if timeline:
                    end_ms = (time.perf_counter() - run_t0) * 1000.0
                    timeline.sample(
                        "engine.peak_rss_kb", end_ms, peak_rss, wall=True
                    )
                    if spill is not None:
                        timeline.sample(
                            "engine.spill_bytes", end_ms, spill["bytes"], wall=True
                        )
                    hits = obs.counter("columns.chunks.hit").value
                    misses = obs.counter("columns.chunks.miss").value
                    if hits + misses:
                        timeline.sample(
                            "engine.column_hit_rate",
                            end_ms,
                            hits / (hits + misses),
                            wall=True,
                        )
                report = ExperimentReport(
                    config=config,
                    result=result,
                    population=len(scenario.population),
                    clusters=view.count,
                    stage_seconds=stage_seconds,
                    policy_seconds=policy_seconds,
                    peak_rss_kb=peak_rss,
                    derived_k_hops=asap_config.k_hops,
                    spill=spill,
                )
                obs.annotate(
                    peak_rss_kb=peak_rss,
                    stage_seconds={k: round(v, 6) for k, v in stage_seconds.items()},
                    policy_seconds={k: round(v, 6) for k, v in policy_seconds.items()},
                    clusters=report.clusters,
                    dense_bytes=report.dense_bytes,
                    derived_k_hops=report.derived_k_hops,
                    spill=spill,
                )
                return report
        finally:
            if ephemeral_spill is not None:
                shutil.rmtree(ephemeral_spill, ignore_errors=True)

    # -- internals ---------------------------------------------------------

    def _build_streamed(self, spill_root: Path) -> Scenario:
        """Build the world with a streamed matrix view over a column
        store at ``spill_root`` attached.

        Bypasses the scenario artifact cache on purpose: persisting a
        scenario forces dense matrix materialization, the very thing the
        streamed substrate exists to avoid.  The column store is the
        streamed run's cache instead (content-addressed by the same
        scenario config key).
        """
        config = self.config
        scenario_config = ScenarioConfig.preset(config.scale, config.seed)
        with obs.span("experiment.build"):
            topology = generate_topology(scenario_config.topology)
            scenario = build_scenario_from_topology(topology, scenario_config)
        n = len(scenario.clusters.all_clusters())
        store = ColumnStore(
            spill_root,
            key=scenario_cache_key(scenario_config),
            n=n,
            chunk=config.chunk_columns,
        )
        virtual = VirtualMatrices(
            scenario.latency,
            scenario.clusters.all_clusters(),
            chunk_columns=config.chunk_columns,
            store=store,
        )
        scenario.attach_virtual_matrices(virtual)
        return scenario


def run_experiment(
    config: Optional[ExperimentConfig] = None, **overrides
) -> ExperimentReport:
    """Build and run an :class:`Experiment` in one call."""
    return Experiment(config, **overrides).run()


def _peak_rss_kb() -> int:
    """Peak resident set size of this process, in KiB (0 if unknown)."""
    try:
        import resource
    except ImportError:  # non-POSIX: no resource module
        return 0
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
