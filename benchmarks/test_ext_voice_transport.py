"""Extension bench — path switching and path diversity over ASAP relays.

Section 6.2: "Techniques such as path diversity ([15, 19]) and path
switching [20] can be used in combination with ASAP."  We run
packet-level calls (every window a ``repro.media`` session) over the
relay candidates select-close-relay returns under time-varying
congestion, comparing static-path, switching, FEC and diversity
transports.
"""

import numpy as np

from repro.core import ASAPConfig, ASAPSystem
from repro.core.config import derive_k_hops
from repro.evaluation.report import render_kv_table
from repro.evaluation.sessions import generate_workload
from repro.media.call import CallConfig, VoiceCall, call_paths_from_selection


def _run_calls(eval_scenario, use_switching, use_diversity, sessions, use_fec=False):
    outcomes = []
    matrices = eval_scenario.matrices
    for index, (selection, a, b) in enumerate(sessions):
        paths = call_paths_from_selection(selection, matrices, a, b, seed=index)
        if not paths:
            continue
        call = VoiceCall(
            paths,
            CallConfig(
                windows=20,
                use_switching=use_switching,
                use_diversity=use_diversity,
                use_fec=use_fec,
                seed=index,
            ),
        )
        outcomes.append(call.run())
    return outcomes


def test_ext_voice_transport(eval_scenario):
    system = ASAPSystem(
        eval_scenario, ASAPConfig(k_hops=derive_k_hops(eval_scenario.matrices))
    )
    workload = generate_workload(eval_scenario, 2000, seed=7, latent_target=25)
    sessions = []
    for session in workload.latent()[:25]:
        call = system.call(session.caller, session.callee)
        if call.selection is not None and len(call.selection.one_hop):
            sessions.append(
                (call.selection, session.caller_cluster, session.callee_cluster)
            )

    results = {
        "static": _run_calls(eval_scenario, False, False, sessions),
        "switching": _run_calls(eval_scenario, True, False, sessions),
        "fec": _run_calls(eval_scenario, False, False, sessions, use_fec=True),
        "diversity": _run_calls(eval_scenario, False, True, sessions),
        "both": _run_calls(eval_scenario, True, True, sessions),
    }

    print()
    rows = []
    summary = {}
    for name, outcomes in results.items():
        mean_mos = float(np.mean([o.mean_mos for o in outcomes]))
        min_mos = float(np.mean([o.min_mos for o in outcomes]))
        satisfied = float(np.mean([o.satisfied_fraction for o in outcomes]))
        switches = float(np.mean([o.switches for o in outcomes]))
        summary[name] = (mean_mos, min_mos, satisfied)
        rows.append(
            (
                f"{name}: mean/min MOS, satisfied, switches",
                f"{mean_mos:.2f} / {min_mos:.2f} / {satisfied:.2f} / {switches:.1f}",
            )
        )
    print(render_kv_table("=== extension — voice transport over ASAP relays ===", rows))

    # Diversity masks loss on either path and is the decisive win;
    # switching helps against congestion episodes (it cannot fix loss
    # that is common to every candidate path) — mean MOS must not drop.
    # The receiver conceals isolated losses, so the static path is
    # already satisfied ~78 % of the time and diversity has ~0.2 to win:
    # +0.17 here, +0.12 … +0.22 over ten call-seed offsets.
    assert summary["diversity"][2] >= summary["static"][2] + 0.10  # satisfied time
    assert summary["diversity"][1] >= summary["static"][1]         # min MOS
    assert summary["both"][2] >= summary["static"][2] + 0.10
    assert summary["switching"][0] >= summary["static"][0] - 0.02  # mean MOS
    # FEC sits between: better than static, at most diversity + noise
    # (it spends 1/group_size the redundant bandwidth).
    assert summary["fec"][0] >= summary["static"][0]
    assert summary["fec"][2] <= summary["diversity"][2] + 0.05
