"""Extension bench — ASAP under membership churn.

P2P membership is never static; Skype's supernode population churns
constantly.  This bench drives the event-driven runtime with a churn
process — hosts (including surrogates) leaving mid-experiment — while
call setups keep arriving, and checks the protocol degrades gracefully:
calls keep completing, surrogate hand-offs happen, and relay quality
stays near the churn-free baseline.
"""

import numpy as np

from repro.core import ASAPConfig
from repro.core.config import derive_k_hops
from repro.core.runtime import ASAPRuntime
from repro.evaluation.report import render_kv_table
from repro.evaluation.sessions import generate_workload
from repro.util.rng import derive_rng


def test_ext_churn(eval_scenario):
    workload = generate_workload(eval_scenario, 2000, seed=11, latent_target=25)
    latent = workload.latent()[:25]
    config = ASAPConfig(k_hops=derive_k_hops(eval_scenario.matrices))

    def run_with_churn():
        runtime = ASAPRuntime(eval_scenario, config)
        rng = derive_rng(11, "churn-bench")
        # Churn: 120 random hosts leave over the first 60 simulated
        # seconds — including, deliberately, the caller-side surrogates
        # of the first ten sessions.
        hosts = eval_scenario.population.hosts
        for i, idx in enumerate(rng.choice(len(hosts), size=120, replace=False)):
            runtime.schedule_leave(hosts[int(idx)].ip, at_ms=float(500 * i))
        for session in latent[:10]:
            surrogate_ip = runtime.system.surrogate(session.caller_cluster).ip
            runtime.schedule_leave(surrogate_ip, at_ms=1_000.0)
        for offset, session in enumerate(latent):
            runtime.schedule_call(
                session.caller, session.callee, at_ms=5_000.0 + 2_000.0 * offset
            )
        runtime.run()
        return runtime

    runtime = run_with_churn()

    setups = runtime.setup_times_ms()
    sessions_with_relay = [
        r for r in runtime.call_setups
        if r.selection is not None and r.selection.best_rtt_ms() is not None
    ]
    rescued = sum(
        1 for r in sessions_with_relay if r.selection.best_rtt_ms() < 300.0
    )

    print()
    print(
        render_kv_table(
            "=== extension — ASAP under membership churn ===",
            [
                ("hosts churned out", 120 + 10),
                ("surrogate hand-offs", len(runtime.surrogate_failures)),
                ("calls scheduled", len(latent)),
                ("call setups completed", len(setups)),
                ("median setup (ms)", float(np.median(setups)) if setups else float("nan")),
                ("sessions rescued (<300 ms)", rescued),
            ],
        )
    )

    # Churn must not break call processing.
    assert len(setups) >= len(latent) - 2  # callers/callees may churn out
    # Deliberately-killed surrogates were handed off.
    assert len(runtime.surrogate_failures) >= 5
    # Relay quality survives churn.
    assert rescued >= 0.8 * len(sessions_with_relay)
