"""Fig. 7 — Skype stabilization time and probing overhead (Limits 3-4).

(a) stabilization time per session — the paper saw up to 329 s;
(b) total relay nodes probed — many sessions above 20, up to 59;
(c) nodes probed after stabilization — mostly 3-6.
"""

import numpy as np

from repro.evaluation.report import render_kv_table


def test_fig07_skype_overhead(section5_result):
    study = section5_result

    stabilization = study.stabilization_seconds()
    probed = study.probed_counts()
    after = study.probed_after_stabilization()

    print()
    print("=== Fig. 7(a) — stabilization time (s) per session ===")
    print("  " + "  ".join(f"{s:6.1f}" for s in stabilization))
    print("=== Fig. 7(b) — total probed relay nodes per session ===")
    print("  " + "  ".join(f"{p:6d}" for p in probed))
    print("=== Fig. 7(c) — probed nodes after stabilization ===")
    print("  " + "  ".join(f"{p:6d}" for p in after))

    print(
        render_kv_table(
            "\nsummary (paper: stab. up to 329 s; >20 probes common; 3-6 after):",
            [
                ("max stabilization (s)", max(stabilization)),
                ("sessions with stabilization > 5 s", sum(1 for s in stabilization if s > 5.0)),
                ("max probed nodes", max(probed)),
                ("sessions probing > 20 nodes", sum(1 for p in probed if p > 20)),
                ("median probed after stabilization", float(np.median(after))),
            ],
        )
    )

    # Limit 3: relay bounce delays stabilization in some sessions.
    assert max(stabilization) > 1.0
    # Limit 4: heavy probing in the problematic sessions.
    assert max(probed) > 20
    # Background probing continues after stabilization.
    assert max(after) >= 3
