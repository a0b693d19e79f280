#!/usr/bin/env python3
"""Quickstart: build a simulated Internet and place one ASAP-relayed call.

Walks the whole pipeline in miniature:

1. build a scenario (topology → BGP feed → prefix table → peer
   population → latency ground truth);
2. stand up the ASAP system (bootstraps, surrogates);
3. join two end hosts and find the worst direct path between clusters;
4. place the call and inspect what select-close-relay found.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import small_scenario
from repro.core import ASAPConfig, ASAPSystem
from repro.core.config import derive_k_hops
from repro.voip.quality import mos_of_path


def main() -> None:
    print("building scenario (~3 s) ...")
    scenario = small_scenario(seed=1)
    matrices = scenario.matrices
    print(
        f"  world: {len(scenario.topology.graph)} ASes, "
        f"{len(scenario.population)} online hosts, "
        f"{len(scenario.clusters)} prefix clusters"
    )

    k = derive_k_hops(matrices)
    system = ASAPSystem(scenario, ASAPConfig(k_hops=k))
    print(f"  ASAP up: {len(scenario.clusters)} surrogates, k = {k}")

    # Pick the worst-direct-RTT cluster pair with hosts on both sides.
    rtt = matrices.rtt_ms.copy()
    rtt[~np.isfinite(rtt)] = -1.0
    a, b = np.unravel_index(int(np.argmax(rtt)), rtt.shape)
    clusters = scenario.clusters.all_clusters()
    caller = clusters[a].hosts[0]
    callee = clusters[b].hosts[0]

    print(f"\ncaller {caller.ip} (AS {caller.asn})  →  callee {callee.ip} (AS {callee.asn})")

    # End hosts join through a bootstrap (prefix → ASN + surrogate).
    serving = system.join(caller.ip)
    print(f"  join: prefix {matrices.prefixes[serving.cluster]}, surrogate {serving.ip}")

    session = system.call(caller.ip, callee.ip)
    print(f"  direct RTT: {session.direct_rtt_ms:.0f} ms "
          f"(MOS {mos_of_path(session.direct_rtt_ms):.2f})")

    if not session.relay_needed:
        print("  direct path already meets the 300 ms requirement — no relay needed")
        return

    selection = session.selection
    print(f"  relay selection: {selection.messages} protocol messages")
    print(f"    one-hop relay IPs:   {selection.one_hop_ips}")
    print(f"    two-hop relay pairs: {selection.two_hop_pairs}")
    best = session.best_relay_rtt_ms
    if best is None:
        print("    no quality relay found")
        return
    print(f"    best relay path RTT: {best:.0f} ms (MOS {mos_of_path(best):.2f})")
    improvement = (session.direct_rtt_ms - best) / session.direct_rtt_ms
    print(f"    improvement over direct: {100 * improvement:.0f}%")

    ips = dict(zip(selection.one_hop["cluster"].tolist(), selection.one_hop["ips"].tolist()))
    print("    best one-hop relay clusters:")
    for rtt, cluster in selection.one_hop_ranked()[:5]:
        prefix = matrices.prefixes[cluster]
        print(
            f"      {str(prefix):>18}  relay-path RTT {rtt:6.0f} ms  "
            f"({ips[cluster]} relay IPs)"
        )


if __name__ == "__main__":
    main()
