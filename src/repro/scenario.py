"""End-to-end scenario assembly: one object holding a whole simulated world.

A :class:`Scenario` is the reproduction of the paper's data pipeline
(Fig. 1) as an executable artifact:

1. generate an annotated AS topology (stands in for the real Internet);
2. allocate prefixes and export BGP RIB snapshots + update streams from
   vantage ASes — *serialized to the text dump format and re-parsed*, so
   the BGP parsing code path is genuinely exercised;
3. build the prefix→origin-AS table and infer the annotated AS graph from
   the parsed paths with Gao's algorithm (what ASAP's bootstraps do);
4. synthesize the online peer population and cluster it by longest
   matched prefix, electing delegates;
5. inject network conditions (congestion / failures / loss) and compute
   the all-pairs delegate RTT/loss/hop matrices.

Every stochastic choice derives from ``ScenarioConfig.seed``, so a config
value uniquely determines the world.  That determinism powers one
runtime knob that never changes results: ``cache_dir``, a
content-addressed artifact cache (:mod:`repro.storage.cache`) — warm
:func:`build_scenario` calls load the world and its matrices from disk
instead of regenerating them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from numbers import Integral
from typing import Optional

from repro import obs
from repro.bgp.asgraph import ASGraph
from repro.bgp.prefix_table import PrefixOriginTable
from repro.bgp.relationships import infer_relationships
from repro.bgp.rib import RoutingTable, format_rib_dump, parse_rib_dump
from repro.bgp.updates import apply_updates
from repro.errors import ConfigurationError
from repro.measurement.conditions import (
    ConditionsConfig,
    NetworkConditions,
    generate_conditions,
)
from repro.measurement.latency import LatencyModel
from repro.measurement.matrix import (
    DelegateMatrices,
    apply_king_noise,
    compute_delegate_matrices,
)
from repro.topology.bgpfeed import generate_rib_entries, generate_update_stream
from repro.topology.clustering import ClusterIndex, build_clusters
from repro.topology.generator import Topology, TopologyConfig, generate_topology
from repro.topology.population import (
    PeerPopulation,
    PopulationConfig,
    generate_population,
)
from repro.topology.prefixes import (
    PrefixAllocation,
    allocate_prefixes,
    allocate_prefixes_hierarchical,
)
from repro.util.rng import derive_rng


@dataclass(frozen=True, kw_only=True)
class ScenarioConfig:
    """Full description of one simulated world (keyword-only fields)."""

    topology: TopologyConfig = TopologyConfig()
    population: PopulationConfig = PopulationConfig()
    conditions: ConditionsConfig = ConditionsConfig()
    vantage_count: int = 10
    # When True the protocol layer sees the Gao-inferred graph (as in the
    # paper); when False it sees the generator's ground-truth annotations.
    use_inferred_graph: bool = True
    # When True, stub prefixes are provider-assigned space carved inside
    # their primary provider's announced aggregate, so the BGP table
    # contains overlapping prefixes and longest-prefix match genuinely
    # discriminates (real-table behaviour).  Flat disjoint allocation
    # otherwise.
    hierarchical_prefixes: bool = False
    seed: int = 0
    # Runtime-only knob — it controls how a world is built, never what
    # is built, and is excluded from artifact-cache keys.  None defers
    # to $REPRO_CACHE_DIR (else no caching).
    cache_dir: Optional[str] = None

    def with_seed(self, seed: int) -> "ScenarioConfig":
        """This config re-seeded everywhere (topology/population/conditions)."""
        return replace(
            self,
            seed=seed,
            topology=replace(self.topology, seed=seed),
            population=replace(self.population, seed=seed),
            conditions=replace(self.conditions, seed=seed),
        )

    @classmethod
    def preset(cls, scale: str, seed: int = 0) -> "ScenarioConfig":
        """The registered config of a named scale tier.

        The tier table:

        ========== ========== ============ ====================================
        scale      clusters~  hosts        purpose
        ========== ========== ============ ====================================
        tiny       ~40        300          unit tests (sub-second build)
        small      ~350       3,000        examples, quick runs
        10k        ~690       10,000       streaming-parity tier (dense fits)
        evaluation ~1,300     20,000       benchmark scale (paper stand-in)
        100k       ~6,300 †   56,700 †     streamed section-7 tier
        1m         ~8,600     1,000,000    million-host smoke tier
        ========== ========== ============ ====================================

        † as built at seed 0 (6,304 clusters / 56,687 hosts); the config
        asks for 8,000 stub ASes and 100,000 hosts.  ``1m`` shares that
        topology and has not been re-counted.

        ``tiny``/``small``/``evaluation`` produce byte-identical configs
        to the old helpers, so existing artifact-cache keys stay valid.
        An unknown scale or a seed that is not a non-negative integer
        raises :class:`~repro.errors.ConfigurationError`.
        """
        try:
            factory = _PRESETS[scale]
        except (KeyError, TypeError):
            raise ConfigurationError(f"unknown scale {scale!r}; choose from {SCALES}") from None
        if isinstance(seed, bool) or not isinstance(seed, Integral) or seed < 0:
            raise ConfigurationError(f"seed must be a non-negative integer, got {seed!r}")
        return factory(seed)

    @classmethod
    def from_cli_args(cls, args) -> "ScenarioConfig":
        """The scenario config described by parsed CLI arguments.

        Reads the common knobs every ``repro.cli`` command declares —
        ``--scale``, ``--seed``, ``--cache-dir`` — from an
        ``argparse.Namespace`` (missing attributes fall back to their CLI
        defaults), so commands build scenarios with one call and a new
        knob is declared in exactly one place.
        """
        scale = getattr(args, "scale", "small")
        config = cls.preset(scale, getattr(args, "seed", 0))
        return replace(config, cache_dir=getattr(args, "cache_dir", None))


@dataclass
class Scenario:
    """A fully built world, ready for protocol runs and experiments."""

    config: ScenarioConfig
    topology: Topology
    allocation: PrefixAllocation
    routing_table: RoutingTable
    prefix_table: PrefixOriginTable
    inferred_graph: ASGraph
    conditions: NetworkConditions
    population: PeerPopulation
    clusters: ClusterIndex
    latency: LatencyModel
    _matrices: Optional[DelegateMatrices] = field(default=None, repr=False)
    # A streamed (never-materialized) matrix view attached by the
    # experiment engine; when set, ``matrix_view()`` serves it and the
    # dense ``.matrices`` property refuses to materialize N×N.
    _virtual: Optional[object] = field(default=None, repr=False)
    # False for derived worlds (subsampled populations, measured-matrix
    # views) whose contents no longer match their config's cache key;
    # the artifact cache refuses to serve or store them.
    cacheable: bool = field(default=True, repr=False)

    @property
    def protocol_graph(self) -> ASGraph:
        """The AS graph the protocol layer operates on (see config flag)."""
        return self.inferred_graph if self.config.use_inferred_graph else self.topology.graph

    @property
    def matrices(self) -> DelegateMatrices:
        """All-pairs delegate matrices, computed on first use and cached."""
        if self._virtual is not None:
            raise RuntimeError(
                "this scenario streams its matrices (a VirtualMatrices view "
                "is attached); use matrix_view() instead of materializing "
                "the dense N×N arrays"
            )
        if self._matrices is None:
            self._matrices = compute_delegate_matrices(self.latency, self.clusters)
        return self._matrices

    def attach_virtual_matrices(self, virtual) -> None:
        """Attach a streamed matrix view (the scenario stops being
        cacheable — its artifacts would force dense materialization)."""
        if self._matrices is not None:
            raise RuntimeError("dense matrices already materialized")
        self._virtual = virtual
        self.cacheable = False

    def matrix_view(self):
        """The matrix read surface every consumer should code against:
        the attached streamed view when present, the dense matrices
        otherwise.  Both implement the same cell/gather/block protocol
        (see ``DelegateMatrices``' world-view methods)."""
        if self._virtual is not None:
            return self._virtual
        return self.matrices

    def with_measured_matrices(
        self,
        seed: int = 0,
        error_sigma: float = 0.06,
        non_response_rate: float = 0.10,
    ) -> "Scenario":
        """A copy of this scenario whose matrices are King-*measured*
        (multiplicative noise + non-responses) instead of ground truth.

        The paper's pipeline only ever saw King estimates (it obtained
        answers for ~70% of delegate pairs); experiments that want the
        measured rather than omniscient view run on this copy.  The
        latency ground truth is unchanged — only what the protocol and
        methods *believe* about it."""
        noisy = apply_king_noise(
            self.matrices,
            seed=seed,
            error_sigma=error_sigma,
            non_response_rate=non_response_rate,
        )
        return Scenario(
            config=self.config,
            topology=self.topology,
            allocation=self.allocation,
            routing_table=self.routing_table,
            prefix_table=self.prefix_table,
            inferred_graph=self.inferred_graph,
            conditions=self.conditions,
            population=self.population,
            clusters=self.clusters,
            latency=self.latency,
            _matrices=noisy,
            cacheable=False,
        )


def build_scenario(config: Optional[ScenarioConfig] = None) -> Scenario:
    """Build a scenario from its config (deterministic in ``config``).

    With a cache directory configured (``config.cache_dir`` or
    ``$REPRO_CACHE_DIR``), a warm call loads the previously built world
    — topology, BGP state, population, *and* delegate matrices — from
    disk instead of regenerating anything; a cold call builds, computes
    the matrices, and persists the artifacts for the next run.
    """
    from repro.storage.cache import ScenarioCache, resolve_cache_dir, scenario_cache_key

    if config is None:
        config = ScenarioConfig()
    obs.annotate(config_key=scenario_cache_key(config), seed=config.seed)
    cache_root = resolve_cache_dir(config.cache_dir)
    cache = ScenarioCache(cache_root) if cache_root is not None else None
    with obs.span("scenario.build"):
        if cache is not None:
            cached = cache.load(config)
            if cached is not None:
                obs.counter("cache.scenario.hits").inc()
                return cached
            obs.counter("cache.scenario.misses").inc()
        with obs.span("scenario.generate"):
            topology = generate_topology(config.topology)
            scenario = build_scenario_from_topology(topology, config)
        if cache is not None:
            cache.save(scenario)  # forces matrix computation before persisting
    return scenario


def build_scenario_from_topology(
    topology: Topology, config: Optional[ScenarioConfig] = None
) -> Scenario:
    """Build a scenario on a pre-built topology (e.g. an alternative
    family from :mod:`repro.topology.models`); everything downstream of
    topology generation — BGP feed, inference, population, weather,
    matrices — runs identically."""
    if config is None:
        config = ScenarioConfig()
    if config.hierarchical_prefixes:
        allocation = allocate_prefixes_hierarchical(topology, seed=config.seed)
    else:
        allocation = allocate_prefixes(topology, seed=config.seed)

    # BGP feed: round-trip through the text dump format so the parser is
    # part of the pipeline, then replay the update stream on top.
    raw_entries = generate_rib_entries(
        topology, allocation, vantage_count=config.vantage_count, seed=config.seed
    )
    dump_text = format_rib_dump(raw_entries)
    parsed_entries = list(parse_rib_dump(dump_text.splitlines()))
    routing_table = RoutingTable.from_entries(parsed_entries)
    updates = generate_update_stream(
        topology, allocation, vantage_count=config.vantage_count, seed=config.seed
    )
    apply_updates(routing_table, updates)

    prefix_table = PrefixOriginTable.from_routing_table(routing_table)
    inferred_graph = infer_relationships(routing_table.entries())

    conditions = generate_conditions(topology, config.conditions)
    population = generate_population(topology, allocation, config.population)
    clusters = build_clusters(population, prefix_table, seed=config.seed)
    latency = LatencyModel(topology, conditions, population, seed=config.seed)

    return Scenario(
        config=config,
        topology=topology,
        allocation=allocation,
        routing_table=routing_table,
        prefix_table=prefix_table,
        inferred_graph=inferred_graph,
        conditions=conditions,
        population=population,
        clusters=clusters,
        latency=latency,
    )


def subsample_scenario(scenario: Scenario, fraction: float, seed: int = 0) -> Scenario:
    """A copy of the scenario with a random subset of the online hosts.

    Topology, BGP data and network conditions are shared (the Internet
    does not change); only the online peer population shrinks, so
    clusters and delegate matrices are rebuilt.  This powers the paper's
    scalability experiment (Fig. 17), which compares per-capita quality
    paths across population sizes.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    rng = derive_rng(seed, "subsample")
    hosts = scenario.population.hosts
    keep = max(2, int(round(fraction * len(hosts))))
    chosen = sorted(
        (int(i) for i in rng.choice(len(hosts), size=keep, replace=False))
    )
    population = PeerPopulation()
    for idx in chosen:
        population.add(hosts[idx])
    clusters = build_clusters(population, scenario.prefix_table, seed=seed)
    latency = LatencyModel(
        scenario.topology, scenario.conditions, population, seed=scenario.config.seed
    )
    return Scenario(
        config=scenario.config,
        topology=scenario.topology,
        allocation=scenario.allocation,
        routing_table=scenario.routing_table,
        prefix_table=scenario.prefix_table,
        inferred_graph=scenario.inferred_graph,
        conditions=scenario.conditions,
        population=population,
        clusters=clusters,
        latency=latency,
        cacheable=False,
    )


# -- scale preset registry --------------------------------------------
#
# The single source of scale tiers, served by ScenarioConfig.preset().
# tiny/small/evaluation are byte-identical to the pre-preset helper
# functions so content-addressed cache keys are stable across the API
# change; 10k/100k/1m extend the table upward for the streaming engine.


def _tiny_preset(seed: int) -> ScenarioConfig:
    return ScenarioConfig(
        topology=TopologyConfig(tier1_count=3, tier2_count=10, tier3_count=40, seed=seed),
        population=PopulationConfig(host_count=300, seed=seed),
        conditions=ConditionsConfig(seed=seed),
        vantage_count=5,
        seed=seed,
    )


def _small_preset(seed: int) -> ScenarioConfig:
    return ScenarioConfig().with_seed(seed)


def _10k_preset(seed: int) -> ScenarioConfig:
    # The streaming-parity tier: large enough that streaming is worth
    # exercising, small enough that the dense N×N comparison still fits.
    return ScenarioConfig(
        topology=TopologyConfig(tier1_count=6, tier2_count=80, tier3_count=640),
        population=PopulationConfig(host_count=10_000),
        vantage_count=8,
    ).with_seed(seed)


def _evaluation_preset(seed: int) -> ScenarioConfig:
    # The scaled-down stand-in for the paper's 23,366-IP / 7,171-cluster
    # measurement dataset; keeps DEDI's 80-cluster fleet a small
    # fraction of all clusters, as in the paper.
    return ScenarioConfig(
        topology=TopologyConfig(tier1_count=10, tier2_count=150, tier3_count=1200),
        population=PopulationConfig(host_count=20000),
    ).with_seed(seed)


def _100k_preset(seed: int) -> ScenarioConfig:
    # Dense matrices at this tier would need ~1.8 GB ×2 float arrays;
    # the streaming engine runs it without materializing any of them.
    # 8k+ stub ASes overflow the flat 10/8 allocator, so these tiers use
    # provider-aggregatable space (a /4 super-block) — also the more
    # realistic address plan at Internet-like AS counts.
    return ScenarioConfig(
        topology=TopologyConfig(tier1_count=12, tier2_count=200, tier3_count=8000),
        population=PopulationConfig(host_count=100_000),
        hierarchical_prefixes=True,
    ).with_seed(seed)


def _1m_preset(seed: int) -> ScenarioConfig:
    # Same Internet as 100k, ten times the peers: cluster count (and the
    # matrix) stays put while populations and workloads scale up.
    return ScenarioConfig(
        topology=TopologyConfig(tier1_count=12, tier2_count=200, tier3_count=8000),
        population=PopulationConfig(host_count=1_000_000),
        hierarchical_prefixes=True,
    ).with_seed(seed)


_PRESETS = {
    "tiny": _tiny_preset,
    "small": _small_preset,
    "10k": _10k_preset,
    "evaluation": _evaluation_preset,
    "100k": _100k_preset,
    "1m": _1m_preset,
}

#: Named scales the CLI (and :meth:`ScenarioConfig.preset`) accept.
SCALES = tuple(_PRESETS)


def small_scenario(seed: int = 0) -> Scenario:
    """A mid-size world (~350 clusters, ~3k hosts): examples, quick runs."""
    return build_scenario(ScenarioConfig.preset("small", seed))
