"""Extension bench — the §6.3 traffic-load discussion, measured.

The paper argues ASAP's load profile is benign: the AS graph is small
(~800 KB), 90% of clusters hold ≤100 online hosts so one surrogate per
cluster suffices, and large clusters can elect multiple surrogates.  We
measure all three claims on the benchmark scenario.
"""

import numpy as np

from repro.core import ASAPConfig, ASAPSystem
from repro.evaluation.report import render_kv_table
from repro.evaluation.sessions import generate_workload


def test_ext_system_load(eval_scenario):
    def run_load_study():
        system = ASAPSystem(eval_scenario, ASAPConfig(hosts_per_surrogate=100))
        workload = generate_workload(eval_scenario, 1500, seed=5, latent_target=40)
        for session in workload.latent()[:40]:
            system.call(session.caller, session.callee)
        return system

    system = run_load_study()
    clusters = eval_scenario.clusters
    occupancy = clusters.occupancy_distribution()

    # Claim 1: AS graph is small.
    graph = eval_scenario.protocol_graph
    approx_graph_bytes = graph.edge_count() * 12  # (a, b, relationship)

    # Claim 2: cluster occupancy is heavy-tailed but small.
    frac_small = float(np.mean([size <= 100 for size in occupancy]))

    # Claim 3: multi-surrogate election for the big clusters.
    group_sizes = [
        len(system.surrogate_group(idx))
        for idx in range(eval_scenario.matrices.count)
    ]
    request_loads = [
        member.close_set_requests
        for idx in range(eval_scenario.matrices.count)
        for member in system.surrogate_group(idx)
    ]

    print()
    print(
        render_kv_table(
            "=== extension — §6.3 system load ===",
            [
                ("AS graph edges", graph.edge_count()),
                ("approx AS graph size (KB)", approx_graph_bytes / 1024.0),
                ("clusters", len(occupancy)),
                ("largest cluster (hosts)", occupancy[0]),
                ("fraction of clusters ≤ 100 hosts", frac_small),
                ("clusters with multiple surrogates", sum(1 for g in group_sizes if g > 1)),
                ("max surrogates in one cluster", max(group_sizes)),
                ("max close-set requests on one surrogate", max(request_loads)),
                ("total maintenance messages", system.maintenance_messages()),
            ],
        )
    )

    # §6.3's claims hold on the generated substrate.
    assert frac_small > 0.85
    assert max(group_sizes) >= 2          # big clusters elect extra surrogates
    assert approx_graph_bytes < 1_000_000  # "small" AS graph
