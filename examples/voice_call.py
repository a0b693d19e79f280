#!/usr/bin/env python3
"""Packet-level voice call over ASAP relays, with switching + diversity.

Builds a world, finds a latent session, lets ASAP select relay paths,
then runs a packet-level call (jitter buffer and all) while paths churn
through congestion — comparing a static path, path switching [20], and
path diversity [15], the techniques the paper names as ASAP-compatible.

Run:  python examples/voice_call.py
"""

import numpy as np

from repro import small_scenario
from repro.core import ASAPConfig, ASAPSystem
from repro.core.config import derive_k_hops
from repro.evaluation.sessions import generate_workload
from repro.media.call import CallConfig, VoiceCall, call_paths_from_selection


def main() -> None:
    print("building scenario (~3 s) ...")
    scenario = small_scenario(seed=1)
    system = ASAPSystem(scenario, ASAPConfig(k_hops=derive_k_hops(scenario.matrices)))

    workload = generate_workload(scenario, 1500, seed=2, latent_target=10)
    session = None
    for candidate in workload.latent():
        call = system.call(candidate.caller, candidate.callee)
        if call.selection is not None and len(call.selection.one_hop) >= 2:
            session, asap_call = candidate, call
            break
    if session is None:
        print("no latent session with multiple relay candidates — try another seed")
        return

    print(f"\nsession {session.caller} → {session.callee}")
    print(f"  direct RTT {session.direct_rtt_ms:.0f} ms; "
          f"{asap_call.selection.one_hop_ips} one-hop relay IPs found")

    paths = call_paths_from_selection(
        asap_call.selection,
        scenario.matrices,
        session.caller_cluster,
        session.callee_cluster,
        seed=7,
    )
    print(f"  candidate paths for the call: {len(paths)}")

    variants = {
        "static best path": CallConfig(windows=25, use_switching=False, seed=11),
        "path switching": CallConfig(windows=25, use_switching=True, seed=11),
        "path diversity": CallConfig(
            windows=25, use_switching=False, use_diversity=True, seed=11
        ),
    }
    print(f"\n{'transport':>18} | {'mean MOS':>8} | {'min MOS':>8} | {'satisfied':>9} | switches")
    for name, config in variants.items():
        # Fresh path processes per variant so dynamics are identical.
        fresh = call_paths_from_selection(
            asap_call.selection,
            scenario.matrices,
            session.caller_cluster,
            session.callee_cluster,
            seed=7,
        )
        outcome = VoiceCall(fresh, config).run()
        print(
            f"{name:>18} | {outcome.mean_mos:8.2f} | {outcome.min_mos:8.2f} | "
            f"{outcome.satisfied_fraction:9.2f} | {outcome.switches}"
        )

    print("\nwindow-by-window (path switching variant):")
    fresh = call_paths_from_selection(
        asap_call.selection, scenario.matrices,
        session.caller_cluster, session.callee_cluster, seed=7,
    )
    outcome = VoiceCall(fresh, variants["path switching"]).run()
    for w in outcome.windows[:12]:
        flag = "  << switched" if w.switched else ""
        print(
            f"  window {w.window:>2}  path {w.active_path}  MOS {w.mos:4.2f}  "
            f"loss {w.effective_loss:5.3f}{flag}"
        )


if __name__ == "__main__":
    main()
