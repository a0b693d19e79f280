"""Fig. 17: the scalability experiment.

"For a given relay node selection method, under different host
populations, if the number of quality paths it found divided by the
population remains relatively stable, we say this method is scalable."

The paper evaluates with 103,625 online hosts vs 23,366 (ratio 4.434).
Here the large population is the scenario's own; the small one is a
random subsample at ``1 / ratio``.  A method's *scalability error* is
how far the population-normalized quality-path distributions of the two
runs diverge (relative difference of medians) — near 0 for a scalable
method (ASAP), large for fixed-probe methods.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro import obs
from repro.core.config import ASAPConfig
from repro.evaluation.section7 import Section7Result, run_section7
from repro.evaluation.sessions import Session, SessionWorkload, generate_workload
from repro.scenario import Scenario, subsample_scenario

#: The paper's population ratio: 103,625 / 23,366.
PAPER_POPULATION_RATIO = 4.434


@dataclass
class ScalabilityResult:
    """Quality-path distributions at two population scales."""

    large_population: int
    small_population: int
    large: Section7Result
    small: Section7Result

    @property
    def ratio(self) -> float:
        return self.large_population / self.small_population

    def normalized_large_series(self, method: str) -> np.ndarray:
        """Large-population one-hop quality paths divided by the ratio
        (Fig. 17's y-axis transformation).

        One-hop counts only: two-hop candidates are IP *pairs*, which
        scale quadratically with the population by construction and
        would make per-capita normalization meaningless.
        """
        return self.large.series(method, "one_hop_quality_paths") / self.ratio

    def _paired_counts(self, method: str):
        """(large, small) one-hop counts for sessions present at both
        scales, matched by session id."""
        large_by_id = {
            s.session_id: r.one_hop_count
            for s, r in zip(self.large.latent_sessions, self.large.records[method])
        }
        pairs = []
        for session, record in zip(
            self.small.latent_sessions, self.small.records[method]
        ):
            if session.session_id in large_by_id:
                pairs.append((large_by_id[session.session_id], record.one_hop_count))
        return pairs

    def scaling_factor(self, method: str) -> float:
        """Median per-session growth of quality paths, large vs small.

        A scalable method's candidate sets grow with the population
        (factor ≈ population ratio); fixed-probe methods sit near 1.
        Computed pairwise over sessions evaluated at both scales.
        """
        pairs = self._paired_counts(method)
        if not pairs:
            return 1.0
        ratios = [(big + 1.0) / (small + 1.0) for big, small in pairs]
        return float(np.median(ratios))

    def scalability_error(self, method: str) -> float:
        """|scaling factor − population ratio| / population ratio.

        ≈ 0 when per-capita one-hop quality paths are stable across
        populations (scalable); ≈ |1 − ratio|/ratio ≈ 0.77 at the
        paper's 4.434 ratio for fixed-probe methods.
        """
        return abs(self.scaling_factor(method) - self.ratio) / self.ratio


def run_scalability(
    scenario: Scenario,
    ratio: float = PAPER_POPULATION_RATIO,
    session_count: int = 2000,
    latent_target: int = 60,
    seed: int = 0,
    methods: Sequence[str] = ("DEDI", "RAND", "MIX", "ASAP"),
    asap_config: Optional[ASAPConfig] = None,
    max_latent_sessions: int = 60,
) -> ScalabilityResult:
    """Run the Fig. 17 experiment at two population scales.

    The latent sessions are generated once on the large population and
    *re-targeted* onto the small one (same caller/callee clusters, a
    host drawn from each cluster's surviving members), so the two runs
    measure the identical calling pattern — only the relay population
    changes, which is exactly the variable Fig. 17 isolates.
    """
    small_scenario = subsample_scenario(scenario, 1.0 / ratio, seed=seed)
    large_workload = generate_workload(
        scenario, session_count, seed=seed, latent_target=latent_target
    )
    with obs.span("scalability.large", population=len(scenario.population)):
        large = run_section7(
            scenario,
            seed=seed,
            methods=methods,
            asap_config=asap_config,
            workload=large_workload,
            max_latent_sessions=max_latent_sessions,
        )

    # Re-target the large run's latent sessions onto the small population.
    large_view = scenario.matrix_view()
    small_view = small_scenario.matrix_view()
    small_sessions = []
    for session in large.latent_sessions:
        prefix_a = large_view.prefixes[session.caller_cluster]
        prefix_b = large_view.prefixes[session.callee_cluster]
        if prefix_a not in small_view.index_of or prefix_b not in small_view.index_of:
            continue
        ca = small_view.index_of[prefix_a]
        cb = small_view.index_of[prefix_b]
        host_a = small_scenario.clusters.clusters[prefix_a].hosts[0]
        host_b = small_scenario.clusters.clusters[prefix_b].hosts[0]
        small_sessions.append(
            Session(
                session_id=session.session_id,
                caller=host_a.ip,
                callee=host_b.ip,
                caller_cluster=ca,
                callee_cluster=cb,
                direct_rtt_ms=small_view.rtt_cell(ca, cb),
            )
        )
    small_workload = SessionWorkload(sessions=small_sessions)
    with obs.span("scalability.small", population=len(small_scenario.population)):
        small = run_section7(
            small_scenario,
            seed=seed,
            methods=methods,
            asap_config=asap_config,
            workload=small_workload,
            max_latent_sessions=max_latent_sessions,
        )
    return ScalabilityResult(
        large_population=len(scenario.population),
        small_population=len(small_scenario.population),
        large=large,
        small=small,
    )
