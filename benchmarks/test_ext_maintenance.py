"""Extension bench — close-set staleness and refresh under new weather.

The paper's evaluation is a single measurement snapshot; operationally,
surrogates must refresh their close sets as congestion moves around.
This bench re-weathers the benchmark world and measures (a) how stale
the old close sets become, and (b) what selection quality stale vs
refreshed sets deliver on the same latent sessions.
"""

import numpy as np

from repro.evaluation.maintenance import run_maintenance_study, reweather, staleness
from repro.core.protocol import ASAPSystem
from repro.core.config import ASAPConfig, derive_k_hops
from repro.evaluation.report import render_kv_table
from repro.evaluation.sessions import generate_workload


def test_ext_maintenance(benchmark, eval_scenario):
    workload = generate_workload(eval_scenario, 2000, seed=9, latent_target=30)
    sessions = workload.latent()[:30]

    outcomes, reports = benchmark.pedantic(
        lambda: run_maintenance_study(eval_scenario, sessions, weather_seed=17),
        rounds=1,
        iterations=1,
    )

    by_policy = {o.policy: o for o in outcomes}
    violation_rates = [r.violation_rate for r in reports if r.entries]
    missing = [r.missing for r in reports]

    print()
    print(
        render_kv_table(
            "=== extension — close-set staleness after a weather change ===",
            [
                ("sessions evaluated", len(sessions)),
                ("mean staleness violation rate", float(np.mean(violation_rates)) if violation_rates else 0.0),
                ("mean newly-qualifying clusters missed", float(np.mean(missing)) if missing else 0.0),
                ("stale: rescued fraction", by_policy["stale"].rescued_fraction),
                ("stale: median realized RTT (ms)", by_policy["stale"].median_best_rtt_ms),
                ("refreshed: rescued fraction", by_policy["refreshed"].rescued_fraction),
                ("refreshed: median realized RTT (ms)", by_policy["refreshed"].median_best_rtt_ms),
                ("refresh probe cost (messages)", by_policy["refreshed"].maintenance_messages),
            ],
        )
    )

    # Refreshed sets can only help (same sessions, same fresh weather).
    assert (
        by_policy["refreshed"].rescued_fraction
        >= by_policy["stale"].rescued_fraction - 1e-9
    )
    # Staleness is real: some entries violate or some clusters are missed.
    assert (violation_rates and max(violation_rates) > 0) or max(missing, default=0) > 0


def test_ext_substrate_realism(benchmark, eval_scenario):
    """Prints the DESIGN.md §2 substitution-validity report."""
    from repro.topology.validation import validate_latency, validate_topology

    def measure():
        return (
            validate_topology(eval_scenario.topology, sample_pairs=300, seed=0),
            validate_latency(eval_scenario, sample_pairs=300, seed=0),
        )

    topo_report, lat_report = benchmark.pedantic(measure, rounds=1, iterations=1)
    print()
    print(render_kv_table("=== substrate realism: topology ===", topo_report.rows()))
    print(render_kv_table("=== substrate realism: latency ===", lat_report.rows()))

    assert topo_report.valley_free_rate == 1.0
    assert topo_report.reachable_rate > 0.9
    assert topo_report.degree_tail_ratio > 3.0
    assert lat_report.hop_latency_correlation > 0.2
    assert lat_report.policy_detour_fraction > 0.02
