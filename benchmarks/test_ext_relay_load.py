"""Extension bench — relay load concentration: ASAP's candidate breadth
vs a fixed dedicated fleet.

§6.2's final pick weighs "traffic load conditions … of the close relay
nodes".  With many concurrent calls, ASAP's 10²-10⁴ candidate IPs per
session let a least-loaded pick spread the relaying thinly; a DEDI-style
fixed fleet funnels every session through the same 80 nodes.  We run the
same concurrent latent sessions through both assignment policies and
compare the load distributions.
"""

from collections import Counter

import numpy as np

from repro.core import ASAPConfig, ASAPSystem
from repro.evaluation.assignment import RelayAssignmentService
from repro.core.config import derive_k_hops
from repro.baselines import DEDIMethod
from repro.evaluation.report import render_kv_table
from repro.evaluation.sessions import generate_workload


def test_ext_relay_load(eval_scenario):
    system = ASAPSystem(
        eval_scenario, ASAPConfig(k_hops=derive_k_hops(eval_scenario.matrices))
    )
    workload = generate_workload(eval_scenario, 3000, seed=13, latent_target=120)
    latent = workload.latent()[:120]

    def run_assignment():
        service = RelayAssignmentService(
            eval_scenario.clusters, eval_scenario.matrices, seed=13
        )
        dedi = DEDIMethod(eval_scenario.topology.graph)
        dedi_load: Counter = Counter()
        assigned = 0
        for sid, session in enumerate(latent):
            call = system.call(session.caller, session.callee)
            if call.selection is not None and len(call.selection.one_hop):
                if service.assign(sid, call.selection) is not None:
                    assigned += 1
            # DEDI: the session goes through its best dedicated node.
            rtt = eval_scenario.matrices.rtt_ms
            fleet = dedi.fleet_for(eval_scenario.matrices)
            paths = [
                (float(rtt[session.caller_cluster, c] + rtt[c, session.callee_cluster]), c)
                for c in fleet
                if c not in (session.caller_cluster, session.callee_cluster)
            ]
            paths = [(v, c) for v, c in paths if np.isfinite(v)]
            if paths:
                dedi_load[min(paths)[1]] += 1
        return service, dedi_load, assigned

    service, dedi_load, assigned = run_assignment()

    asap_dist = service.load_distribution()
    dedi_dist = sorted(dedi_load.values(), reverse=True)
    print()
    print(
        render_kv_table(
            "=== extension — relay load concentration (120 concurrent sessions) ===",
            [
                ("ASAP sessions assigned", assigned),
                ("ASAP distinct relay IPs used", service.distinct_relays()),
                ("ASAP max sessions on one relay", service.max_load()),
                ("DEDI distinct dedicated nodes used", len(dedi_load)),
                ("DEDI max sessions on one node", max(dedi_dist, default=0)),
                ("ASAP load top-5", tuple(asap_dist[:5])),
                ("DEDI load top-5", tuple(dedi_dist[:5])),
            ],
        )
    )

    # ASAP's breadth spreads load: far more distinct relays, far lower
    # peak load than the fixed fleet.
    assert service.distinct_relays() > len(dedi_load)
    assert service.max_load() < max(dedi_dist, default=10**9)
    assert assigned >= 0.9 * len(latent)
