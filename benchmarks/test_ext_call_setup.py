"""Extension bench — call setup time: ASAP vs the Skype-like policy.

Not a paper figure, but the paper's Limit 3 argument quantified: Skype
stabilizes in tens-to-hundreds of seconds of probing, while ASAP's
select-close-relay completes in a handful of RTTs.  Both run on the
same scenario; ASAP setups go through the event-driven runtime so every
hop pays real simulated latency.
"""

import numpy as np

from repro.core import ASAPConfig
from repro.core.config import derive_k_hops
from repro.core.runtime import ASAPRuntime
from repro.evaluation.report import render_kv_table
from repro.evaluation.sessions import generate_workload


def test_ext_call_setup_time(eval_scenario, section5_result):
    workload = generate_workload(eval_scenario, 2000, seed=3, latent_target=30)
    latent = workload.latent()[:30]

    def run_setups():
        runtime = ASAPRuntime(
            eval_scenario,
            ASAPConfig(k_hops=derive_k_hops(eval_scenario.matrices)),
        )
        for offset, session in enumerate(latent):
            runtime.schedule_call(session.caller, session.callee, at_ms=float(offset))
        runtime.run()
        return runtime

    runtime = run_setups()
    setups = np.array(runtime.setup_times_ms())
    skype_stab = np.array(section5_result.stabilization_seconds()) * 1000.0

    print()
    print("=== extension — relay selection latency ===")
    print(
        render_kv_table(
            "ASAP call setup (ms, simulated network):",
            [
                ("sessions", len(setups)),
                ("median setup", float(np.median(setups))),
                ("p90 setup", float(np.percentile(setups, 90))),
                ("max setup", float(setups.max())),
            ],
        )
    )
    print(
        render_kv_table(
            "Skype-like stabilization (ms), same scenario:",
            [
                ("median", float(np.median(skype_stab))),
                ("max", float(skype_stab.max())),
            ],
        )
    )
    ratio = float(np.median(skype_stab[skype_stab > 0])) / max(float(np.median(setups)), 1.0) if np.any(skype_stab > 0) else float("inf")
    print(f"  stabilization/setup median ratio ≈ {ratio:.0f}x")

    # ASAP setups complete in a handful of RTTs (single-digit seconds
    # even on terrible paths); Skype bounces for far longer somewhere.
    assert len(setups) == len(latent)
    assert float(np.median(setups)) < 5_000.0
    assert skype_stab.max() > float(np.median(setups))
