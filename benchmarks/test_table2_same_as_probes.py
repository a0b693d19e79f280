"""Table 2 — multiple relay nodes probed inside one AS (Limit 2).

The paper's Table 2 shows two relays probed in session 8, both in
barak-online.net's AS, with near-identical relay path RTTs — evidence
that Skype ignores AS topology.  We print every same-AS probe group our
analyzer finds across the 14 sessions, with King-estimated path RTTs.
"""

from repro.measurement.latency import RELAY_DELAY_RTT_MS
from repro.measurement.tools import KingEstimator


def test_table2_same_as_probes(eval_scenario, section5_result):
    rows = section5_result.same_as_table()
    king = KingEstimator(eval_scenario.latency, seed=0, non_response_rate=0.0)
    population = eval_scenario.population

    print()
    print("=== Table 2 — relay nodes probed in the same AS ===")
    printed = 0
    for session_id, asn, ips in rows:
        if printed >= 10:
            print(f"  ... {len(rows) - printed} more same-AS groups")
            break
        result = section5_result.results[session_id - 1]
        caller = population.by_ip(result.trace.caller)
        callee = population.by_ip(result.trace.callee)
        print(f"  session {session_id:>2}, AS {asn}:")
        for ip in ips[:4]:
            if ip in population:
                relay = population.by_ip(ip)
                leg1 = king.estimate(caller, relay)
                leg2 = king.estimate(relay, callee)
                rtt = (
                    f"{leg1 + leg2 + RELAY_DELAY_RTT_MS:7.0f} ms"
                    if leg1 is not None and leg2 is not None
                    else "   n/a"
                )
            else:
                rtt = "   n/a"
            print(f"      relay {str(ip):<16} relay-path RTT {rtt}")
        printed += 1

    # Limit 2's existence: AS-unaware probing lands in the same AS.
    assert rows, "expected same-AS probe groups across 14 sessions"
    # And the duplicate probes are largely redundant: same-AS relay
    # paths share fate (the paper's point).
    assert any(len(ips) >= 2 for _, _, ips in rows)
