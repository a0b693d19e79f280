"""Table 1 / Fig. 5 — the 14-session Skype study plan (Section 5).

Prints the site placement (two regions, sites 1-6 co-located) and the
caller-callee plan, plus each session's analyzed major-path kind —
the paper observed 4 direct, 7 one-hop-relayed symmetric sessions and
several asymmetric ones.
"""

from repro.evaluation.section5 import REGION_A_SITES, REGION_B_SITES


def test_table1_skype_sessions(section5_result):
    study = section5_result

    print()
    print("=== Fig. 5 — sites ===")
    for site in sorted(study.plan.site_host):
        host = study.plan.host(site)
        region = study.plan.region_of[site]
        print(f"  site {site:>2}  region {region}  host {host.ip}  AS {host.asn}")

    print()
    print("=== Table 1 — 14 calling sessions ===")
    header = "  session :" + "".join(f"{i:>7d}" for i in range(1, 15))
    plan = "  sites   :" + "".join(f"{c:>4d}-{d:<2d}" for c, d in study.sessions)
    print(header)
    print(plan)

    print()
    print("=== analyzed major paths ===")
    direct_count = relay_count = asymmetric_count = 0
    for analysis in study.analyses:
        fwd_kind = "relay" if analysis.forward.uses_relay else "direct"
        bwd_kind = "relay" if analysis.backward.uses_relay else "direct"
        if analysis.asymmetric:
            asymmetric_count += 1
        if fwd_kind == "direct" and bwd_kind == "direct":
            direct_count += 1
        else:
            relay_count += 1
        print(
            f"  session {analysis.session_id:>2}: forward={fwd_kind:<6} "
            f"backward={bwd_kind:<6} "
            f"{'asymmetric' if analysis.asymmetric else 'symmetric'}"
        )
    print(
        f"\n  direct-only sessions: {direct_count}, relayed: {relay_count}, "
        f"asymmetric: {asymmetric_count} "
        "(paper: 4 direct, 8 relayed, plus asymmetric sessions)"
    )

    assert len(study.analyses) == 14
    assert relay_count >= 1 and direct_count >= 1
