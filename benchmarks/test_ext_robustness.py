"""Extension bench — robustness of the headline results.

Two axes the paper's single-snapshot evaluation could not explore:

- **seeds**: rebuild the world three times and report mean ± std of the
  headline numbers (is the reproduction a lucky draw?);
- **topology families**: rerun the full pipeline on Barabási–Albert and
  Waxman topologies.  The method *ordering* (ASAP ≫ baselines, ASAP ≈
  OPT) must hold everywhere; the *absolute rescue rate* is expected to
  drop on Waxman — its latent sessions are caused by geometric distance
  rather than routing pathology, and no relay can beat physics.  That
  contrast is itself a finding: the paper's "relays rescue everything"
  presumes routing-induced latency, which the real Internet (and our
  tiered/BA families) exhibit.
"""

from dataclasses import replace

from repro.evaluation.report import render_kv_table
from repro.evaluation.robustness import family_study, seed_study, summarize_across
from repro.scenario import ScenarioConfig
from repro.topology import PopulationConfig, TopologyConfig

STUDY_CONFIG = ScenarioConfig(
    topology=TopologyConfig(tier1_count=5, tier2_count=40, tier3_count=250),
    population=PopulationConfig(host_count=2000),
)


def test_ext_seed_robustness():
    results = seed_study(
        STUDY_CONFIG, seeds=(0, 1, 2), session_count=1200, latent_target=30
    )
    print()
    print("=== extension — headline metrics across seeds ===")
    for metrics in results:
        print("  " + metrics.row())
    print(render_kv_table("aggregate:", summarize_across(results)))

    # The headline ordering holds at every seed.
    for metrics in results:
        assert metrics.rescued_by_opt_one_hop > 0.9
        assert metrics.asap_over_best_baseline > 5.0
        assert metrics.asap_rescue_rate > 0.8
        assert 0.8 < metrics.asap_over_opt_rtt < 1.3


def test_ext_family_robustness():
    results = family_study(
        STUDY_CONFIG, as_count=300, session_count=1200, latent_target=30, seed=0
    )
    print()
    print("=== extension — headline metrics across topology families ===")
    for metrics in results:
        print("  " + metrics.row())

    by_label = {m.label: m for m in results}
    # ASAP beats the baselines on every family.
    for metrics in results:
        assert metrics.asap_over_best_baseline > 2.0
    # Routing-induced-latency families are highly rescuable...
    assert by_label["tiered"].rescued_by_opt_one_hop > 0.9
    assert by_label["barabasi-albert"].rescued_by_opt_one_hop > 0.8
    # ...while Waxman's distance-induced latency is not (the contrast
    # that shows what the paper's result depends on).
    assert (
        by_label["waxman"].rescued_by_opt_one_hop
        < by_label["tiered"].rescued_by_opt_one_hop
    )
